//! Dependency-free reader of the committed trace CSV schema.
//!
//! External cluster traces replace the synthetic generators through a
//! deliberately small file format: one VM arrival per row, with optional
//! traffic wiring to an earlier-declared VM. The parser is strict — a
//! malformed row names its line — so a bad trace dies at load time, not
//! three thousand slots into a simulation.
//!
//! # Schema
//!
//! ```csv
//! slot,vm,memory_gb,lifetime_slots,profile,trace_seed,peer,mb_to_peer,mb_from_peer
//! 1,0,4.0,24,web,11,,,
//! 1,1,2.0,24,batch,12,0,6.5,1.5
//! ```
//!
//! * `slot` — arrival boundary (>= 1; non-decreasing down the file),
//! * `vm` — trace-local id, unique within the file (the replayer maps it
//!   to a fresh engine id at arrival time),
//! * `memory_gb` — finite, > 0 (also determines the vCPU count),
//! * `lifetime_slots` — >= 1; departures happen by natural expiry,
//! * `profile` — `web`, `batch` or `hpc`,
//! * `trace_seed` — seed of the VM's deterministic utilization trace,
//! * `peer`,`mb_to_peer`,`mb_from_peer` — either all empty (no wiring)
//!   or a traffic pair to an earlier-declared, still-alive trace VM with
//!   finite directed rates >= 0 in MB per 5 s tick.
//!
//! Blank lines and `#` comment lines are skipped. Errors are plain
//! strings of the shape `line N: ...` so CLI layers can print them
//! verbatim and exit.

use crate::arrivals::ScriptedArrival;
use crate::trace::TraceKind;

/// The exact header line every trace file must start with.
pub const TRACE_HEADER: &str =
    "slot,vm,memory_gb,lifetime_slots,profile,trace_seed,peer,mb_to_peer,mb_from_peer";

/// One parsed trace row: a scripted arrival plus optional traffic wiring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRow {
    /// Arrival slot boundary (>= 1).
    pub slot: u32,
    /// Trace-local VM id (unique within the file).
    pub vm: u32,
    /// Memory footprint in GB.
    pub memory_gb: f64,
    /// Slots the VM stays active.
    pub lifetime_slots: u32,
    /// Utilization-trace family.
    pub kind: TraceKind,
    /// Seed of the VM's deterministic trace.
    pub trace_seed: u64,
    /// Earlier-declared trace VM this one exchanges data with.
    pub peer: Option<u32>,
    /// Rate `vm → peer` in MB per tick (0 when `peer` is empty).
    pub mb_to_peer: f64,
    /// Rate `peer → vm` in MB per tick (0 when `peer` is empty).
    pub mb_from_peer: f64,
}

impl TraceRow {
    /// The row as a scripted arrival (traffic wiring is carried by the
    /// replayer, not by the arrival process).
    pub fn scripted(&self) -> ScriptedArrival {
        ScriptedArrival {
            slot: self.slot,
            memory_gb: self.memory_gb,
            lifetime_slots: self.lifetime_slots,
            kind: self.kind,
            trace_seed: self.trace_seed,
        }
    }

    /// One past the last slot the VM is active.
    fn departure(&self) -> u64 {
        u64::from(self.slot) + u64::from(self.lifetime_slots)
    }
}

/// Parses and fully validates a trace file's text.
///
/// # Errors
///
/// Returns a `line N: ...` message naming the first offending line (or
/// the missing/garbled header).
pub fn parse_trace(text: &str) -> Result<Vec<TraceRow>, String> {
    let mut rows: Vec<TraceRow> = Vec::new();
    let mut saw_header = false;
    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = raw.trim_end_matches('\r');
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        if !saw_header {
            if line.trim() != TRACE_HEADER {
                return Err(format!(
                    "line {line_no}: expected the header \"{TRACE_HEADER}\", got \"{line}\""
                ));
            }
            saw_header = true;
            continue;
        }
        let row = parse_row(line, line_no, &rows)?;
        rows.push(row);
    }
    if !saw_header {
        return Err(format!(
            "line 1: empty trace — the header \"{TRACE_HEADER}\" is required"
        ));
    }
    Ok(rows)
}

/// Reads and parses a trace file from disk.
///
/// # Errors
///
/// Returns `<path>: <reason>` for unreadable files and
/// `<path>: line N: ...` for malformed content.
pub fn load_trace(path: &str) -> Result<Vec<TraceRow>, String> {
    // audit:allow(D3): trace ingest is an input boundary like checkpoint load — the file's bytes are parsed strictly and never touch simulation state until validated
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_trace(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_row(line: &str, line_no: usize, earlier: &[TraceRow]) -> Result<TraceRow, String> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() != 9 {
        return Err(format!(
            "line {line_no}: expected 9 comma-separated fields, got {}",
            fields.len()
        ));
    }
    let slot: u32 = field(fields[0], line_no, "slot")?;
    if slot == 0 {
        return Err(format!(
            "line {line_no}: slot must be >= 1 (slot 0 is the initial population)"
        ));
    }
    if let Some(prev) = earlier.last() {
        if slot < prev.slot {
            return Err(format!(
                "line {line_no}: slot {slot} goes backwards (previous row was slot {})",
                prev.slot
            ));
        }
    }
    let vm: u32 = field(fields[1], line_no, "vm")?;
    if earlier.iter().any(|r| r.vm == vm) {
        return Err(format!("line {line_no}: duplicate vm id {vm}"));
    }
    let memory_gb: f64 = field(fields[2], line_no, "memory_gb")?;
    if !memory_gb.is_finite() || memory_gb <= 0.0 {
        return Err(format!(
            "line {line_no}: memory_gb must be finite and > 0, got {}",
            fields[2]
        ));
    }
    let lifetime_slots: u32 = field(fields[3], line_no, "lifetime_slots")?;
    if lifetime_slots == 0 {
        return Err(format!("line {line_no}: lifetime_slots must be >= 1"));
    }
    let kind = TraceKind::from_name(fields[4]).ok_or_else(|| {
        format!(
            "line {line_no}: profile must be web, batch or hpc, got \"{}\"",
            fields[4]
        )
    })?;
    let trace_seed: u64 = field(fields[5], line_no, "trace_seed")?;

    let wiring = [fields[6], fields[7], fields[8]];
    let peer;
    let (mb_to_peer, mb_from_peer);
    if wiring.iter().all(|f| f.is_empty()) {
        peer = None;
        mb_to_peer = 0.0;
        mb_from_peer = 0.0;
    } else if wiring.iter().any(|f| f.is_empty()) {
        return Err(format!(
            "line {line_no}: peer, mb_to_peer and mb_from_peer must be set together (or all empty)"
        ));
    } else {
        let peer_id: u32 = field(fields[6], line_no, "peer")?;
        if peer_id == vm {
            return Err(format!("line {line_no}: vm {vm} cannot peer with itself"));
        }
        let Some(peer_row) = earlier.iter().find(|r| r.vm == peer_id) else {
            return Err(format!(
                "line {line_no}: peer {peer_id} is not declared on an earlier row"
            ));
        };
        if u64::from(slot) >= peer_row.departure() {
            return Err(format!(
                "line {line_no}: peer {peer_id} departs at slot {} — gone before \
                 this arrival at slot {slot}",
                peer_row.departure()
            ));
        }
        mb_to_peer = field::<f64>(fields[7], line_no, "mb_to_peer")?;
        mb_from_peer = field::<f64>(fields[8], line_no, "mb_from_peer")?;
        for (name, rate) in [("mb_to_peer", mb_to_peer), ("mb_from_peer", mb_from_peer)] {
            if !rate.is_finite() || rate < 0.0 {
                return Err(format!(
                    "line {line_no}: {name} must be finite and >= 0, got {rate}"
                ));
            }
        }
        peer = Some(peer_id);
    }
    Ok(TraceRow {
        slot,
        vm,
        memory_gb,
        lifetime_slots,
        kind,
        trace_seed,
        peer,
        mb_to_peer,
        mb_from_peer,
    })
}

fn field<T: std::str::FromStr>(raw: &str, line_no: usize, name: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("line {line_no}: {name} must be a valid number, got \"{raw}\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(body: &str) -> String {
        format!("{TRACE_HEADER}\n{body}")
    }

    #[test]
    fn a_small_valid_trace_parses() {
        let text = trace(
            "# comment\n\
             1,0,4.0,24,web,11,,,\n\
             \n\
             1,1,2.0,24,batch,12,0,6.5,1.5\n\
             3,2,8.0,6,hpc,13,1,0.0,2.25\n",
        );
        let rows = parse_trace(&text).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].peer, None);
        assert_eq!(rows[1].peer, Some(0));
        assert_eq!(rows[1].kind, TraceKind::Batch);
        assert_eq!(rows[2].mb_from_peer, 2.25);
        assert_eq!(rows[0].scripted().memory_gb, 4.0);
    }

    #[test]
    fn every_malformation_names_its_line() {
        let bad = [
            ("1,0,4.0,24,web,11,,", "line 2: expected 9"),
            ("0,0,4.0,24,web,11,,,", "line 2: slot must be >= 1"),
            ("1,0,nope,24,web,11,,,", "line 2: memory_gb"),
            ("1,0,-4.0,24,web,11,,,", "line 2: memory_gb"),
            ("1,0,4.0,0,web,11,,,", "line 2: lifetime_slots"),
            ("1,0,4.0,24,cloud,11,,,", "line 2: profile"),
            ("1,0,4.0,24,web,x,,,", "line 2: trace_seed"),
            (
                "1,0,4.0,24,web,11,5,,",
                "line 2: peer, mb_to_peer and mb_from_peer",
            ),
            ("1,0,4.0,24,web,11,0,1.0,1.0", "line 2: vm 0 cannot peer"),
            (
                "1,0,4.0,24,web,11,7,1.0,1.0",
                "line 2: peer 7 is not declared",
            ),
        ];
        for (row, expected) in bad {
            let err = parse_trace(&trace(row)).unwrap_err();
            assert!(err.contains(expected), "{row}: {err}");
        }
        let multi = trace("2,0,4.0,24,web,11,,,\n1,1,4.0,24,web,12,,,");
        let err = parse_trace(&multi).unwrap_err();
        assert!(err.contains("line 3: slot 1 goes backwards"), "{err}");
        let dup = trace("1,0,4.0,24,web,11,,,\n1,0,4.0,24,web,12,,,");
        let err = parse_trace(&dup).unwrap_err();
        assert!(err.contains("line 3: duplicate vm id 0"), "{err}");
        let gone = trace("1,0,4.0,2,web,11,,,\n3,1,4.0,4,web,12,0,1.0,1.0");
        let err = parse_trace(&gone).unwrap_err();
        assert!(err.contains("line 3: peer 0 departs at slot 3"), "{err}");
    }

    #[test]
    fn header_is_mandatory() {
        assert!(parse_trace("").unwrap_err().contains("header"));
        assert!(parse_trace("1,0,4.0,24,web,11,,,")
            .unwrap_err()
            .contains("expected the header"));
        // Header alone is a valid (empty) trace.
        assert_eq!(parse_trace(&trace("")).unwrap(), vec![]);
    }

    #[test]
    fn missing_files_name_the_path() {
        let err = load_trace("/definitely/not/here.csv").unwrap_err();
        assert!(err.starts_with("/definitely/not/here.csv: "), "{err}");
    }
}
