//! The seeded churn script every served session (and its in-process
//! replays) follows.
//!
//! Between two slots the client queues, for the next boundary: a few
//! early departures of VMs it started earlier, 40 arrivals, 120 traffic
//! wirings among VMs that are alive after the boundary, then one
//! `get_state` and one `metrics`. The script never names a VM it did not
//! start itself, and chooses departures and wirings from its own record
//! of which VMs are alive at the boundary, so no command is invalid.
//! The only thing it learns from its sink is the id each arrival got,
//! which every faithful sink assigns the same way.

/// Arrivals queued per boundary.
pub const ARRIVALS: usize = 40;
/// Traffic wirings queued per boundary.
pub const WIRINGS: usize = 120;
/// Early departures queued per boundary (fewer while too few VMs live).
pub const DEPARTURES: usize = 3;

/// Where the script's commands go.
pub trait Sink {
    /// Queues an arrival and returns the id the service gave it.
    fn arrive(
        &mut self,
        memory_gb: f64,
        lifetime: u32,
        profile: &str,
        trace_seed: u64,
    ) -> Result<u32, String>;
    fn wire(&mut self, a: u32, b: u32, a_to_b_mb: f64, b_to_a_mb: f64) -> Result<(), String>;
    fn depart(&mut self, id: u32) -> Result<(), String>;
    /// One `get_state` and one `metrics`.
    fn status(&mut self) -> Result<(), String>;
}

/// splitmix64: a tiny seeded generator, so the script needs no RNG crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5C12_7C4E_0B0E_9A11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One VM the script started.
#[derive(Debug, Clone)]
struct Started {
    id: u32,
    /// First slot the VM is active in.
    arrival: u32,
    /// First slot it is no longer active in (natural expiry).
    expiry: u32,
    departed: bool,
}

impl Started {
    fn alive_at(&self, slot: u32) -> bool {
        !self.departed && self.arrival <= slot && slot < self.expiry
    }
}

/// The churn script of one session.
#[derive(Debug, Clone)]
pub struct Script {
    rng: Rng,
    started: Vec<Started>,
}

impl Script {
    pub fn new(seed: u64) -> Self {
        Script {
            rng: Rng::new(seed),
            started: Vec::new(),
        }
    }

    /// Queues the churn for the boundary into `slot` (the client has
    /// completed `slot - 1`), then asks for state and metrics.
    pub fn churn(&mut self, slot: u32, sink: &mut dyn Sink) -> Result<(), String> {
        // Early departures: alive now and still alive after the boundary
        // (a natural expiry needs no command).
        let candidates: Vec<usize> = (0..self.started.len())
            .filter(|&i| self.started[i].alive_at(slot - 1) && self.started[i].alive_at(slot))
            .collect();
        let mut chosen: Vec<usize> = Vec::new();
        while chosen.len() < DEPARTURES.min(candidates.len()) {
            let pick = candidates[self.rng.below(candidates.len())];
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        for &i in &chosen {
            sink.depart(self.started[i].id)?;
            self.started[i].departed = true;
        }
        for _ in 0..ARRIVALS {
            let memory_gb = [1.0, 2.0, 4.0, 8.0][self.rng.below(4)];
            let lifetime = 2 + self.rng.below(11) as u32;
            let profile = ["web", "batch", "hpc"][self.rng.below(3)];
            let trace_seed = self.rng.next_u64() >> 12;
            let id = sink.arrive(memory_gb, lifetime, profile, trace_seed)?;
            self.started.push(Started {
                id,
                arrival: slot,
                expiry: slot + lifetime,
                departed: false,
            });
        }
        let alive: Vec<u32> = self
            .started
            .iter()
            .filter(|vm| vm.alive_at(slot))
            .map(|vm| vm.id)
            .collect();
        for _ in 0..WIRINGS {
            let a = alive[self.rng.below(alive.len())];
            let mut b = alive[self.rng.below(alive.len())];
            while b == a {
                b = alive[self.rng.below(alive.len())];
            }
            let a_to_b = self.rng.range(0.5, 8.0);
            let b_to_a = self.rng.range(0.0, 4.0);
            sink.wire(a, b, a_to_b, b_to_a)?;
        }
        // Forget VMs that can never be named again.
        self.started.retain(|vm| !vm.departed && vm.expiry > slot);
        sink.status()
    }
}

/// The JSON request lines of the script's commands, shared by every
/// sink that speaks the serve protocol. Numbers are written in Rust's
/// shortest round-trip form, so the service parses back exactly the
/// values an in-process replay queues.
pub mod lines {
    pub fn arrive(memory_gb: f64, lifetime: u32, profile: &str, trace_seed: u64) -> String {
        format!(
            r#"{{"cmd":"vm_arrive","memory_gb":{memory_gb},"lifetime_slots":{lifetime},"profile":"{profile}","trace_seed":{trace_seed}}}"#
        )
    }

    pub fn wire(a: u32, b: u32, a_to_b_mb: f64, b_to_a_mb: f64) -> String {
        format!(
            r#"{{"cmd":"wire_traffic","a":{a},"b":{b},"a_to_b_mb":{a_to_b_mb},"b_to_a_mb":{b_to_a_mb}}}"#
        )
    }

    pub fn depart(id: u32) -> String {
        format!(r#"{{"cmd":"vm_depart","id":{id}}}"#)
    }

    pub const GET_STATE: &str = r#"{"cmd":"get_state"}"#;
    pub const METRICS: &str = r#"{"cmd":"metrics"}"#;
    pub const ADVANCE: &str = r#"{"cmd":"advance"}"#;
    pub const DECIDE: &str = r#"{"cmd":"decide"}"#;
    pub const SHUTDOWN: &str = r#"{"cmd":"shutdown"}"#;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records commands and hands out consecutive ids.
    #[derive(Default)]
    struct Log {
        next: u32,
        commands: Vec<String>,
    }

    impl Sink for Log {
        fn arrive(&mut self, m: f64, l: u32, p: &str, s: u64) -> Result<u32, String> {
            self.commands.push(lines::arrive(m, l, p, s));
            self.next += 1;
            Ok(self.next + 99)
        }
        fn wire(&mut self, a: u32, b: u32, x: f64, y: f64) -> Result<(), String> {
            assert_ne!(a, b);
            self.commands.push(lines::wire(a, b, x, y));
            Ok(())
        }
        fn depart(&mut self, id: u32) -> Result<(), String> {
            self.commands.push(lines::depart(id));
            Ok(())
        }
        fn status(&mut self) -> Result<(), String> {
            self.commands.push(lines::GET_STATE.into());
            Ok(())
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_commands() {
        let run = |seed| {
            let mut script = Script::new(seed);
            let mut log = Log::default();
            for slot in 1..6 {
                script.churn(slot, &mut log).unwrap();
            }
            log.commands
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        let commands = run(7);
        assert!(commands.iter().any(|c| c.contains("vm_depart")));
        assert_eq!(
            commands.iter().filter(|c| c.contains("vm_arrive")).count(),
            5 * ARRIVALS
        );
    }
}
