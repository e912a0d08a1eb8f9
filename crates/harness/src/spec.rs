//! The backend registry: every backend family, simulated and native,
//! as one parseable value.
//!
//! A [`BackendSpec`] is "which counter, driven how" as a plain value.
//! It lives here, in the first crate that sees every backend; the
//! family names themselves are [`SimBackend::NAME`],
//! [`AsyncBackend::NAME`] and the engine's [`CounterSpec::family`].
//! Its text form is `family[:N]` — [`BackendSpec::name`] plus, for the
//! families that take one, the batch width or shard count — and
//! [`BackendSpec::all`] lists one default-parameter spec per family,
//! which is also what the parser and the usage text are generated from.

use std::fmt;
use std::str::FromStr;

use cnet_engine::{
    AsyncBackend, AsyncConfig, Backend, BalancerKind, CombiningConfig, CounterSpec, RoutePolicy,
    ShmBackend, SpecError, Workload,
};
use cnet_proteus::{SimBackend, SimConfig};
use cnet_topology::Topology;

/// Batch width of a bare `shm-batch`.
const DEFAULT_BATCH: u64 = 8;

/// Shard count of a bare `shm-shard`.
const DEFAULT_SHARDS: usize = 4;

/// Which counter, driven by which executor.
///
/// Values a flavor string cannot carry ([`CombiningConfig::slots`],
/// the [`AsyncConfig`], the simulator's machine model) are fields of
/// the configs the variants hold: parse first, then set them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSpec {
    /// The discrete-event simulator ([`SimBackend`]). The config's
    /// seed is replaced by the one [`BackendSpec::build`] is given.
    Sim(SimConfig),
    /// One OS thread per client over a native counter ([`ShmBackend`]).
    Threads(CounterSpec),
    /// Cooperative clients on a small worker pool over the compiled
    /// network with wait-free balancers ([`AsyncBackend`]).
    Async(AsyncConfig),
}

impl BackendSpec {
    /// One spec per family, default parameters (`K = 8`, `S = 4`),
    /// in usage order.
    #[must_use]
    pub fn all() -> [BackendSpec; 5] {
        use BackendSpec::{Async, Sim, Threads};
        let kind = BalancerKind::WaitFree;
        let network = CounterSpec::Network(kind);
        let batch = CounterSpec::Batch(
            kind,
            CombiningConfig {
                max_batch: DEFAULT_BATCH,
                ..CombiningConfig::default()
            },
        );
        let shard = CounterSpec::Shard(kind, RoutePolicy::RoundRobin, DEFAULT_SHARDS);
        [
            Sim(SimConfig::queue_lock(0)),
            Threads(network),
            Threads(batch),
            Threads(shard),
            Async(AsyncConfig::default()),
        ]
    }

    /// The family string an outcome and its record carry
    /// ([`Backend::name`]): the flavor without its parameter.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Sim(_) => SimBackend::NAME,
            BackendSpec::Threads(counter) => counter.family(),
            BackendSpec::Async(_) => AsyncBackend::NAME,
        }
    }

    /// Whether a quiescent state without the step property is by
    /// design here, not a failure ([`CounterSpec::relaxes_step`]).
    #[must_use]
    pub fn relaxes_step(&self) -> bool {
        matches!(self, BackendSpec::Threads(counter) if counter.relaxes_step())
    }

    /// How many OS threads drive clients at once when this spec runs
    /// `workload` — the host parallelism the run models: the
    /// simulator's one, a thread per client, or the async worker pool.
    #[must_use]
    pub fn client_threads(&self, workload: &Workload) -> usize {
        match self {
            BackendSpec::Sim(_) => 1,
            BackendSpec::Threads(_) => workload.processors,
            BackendSpec::Async(config) => config.workers,
        }
    }

    /// The `:N` of the text form: batch width or shard count.
    fn parameter(&self) -> Option<usize> {
        match self {
            BackendSpec::Threads(CounterSpec::Batch(_, config)) => {
                usize::try_from(config.max_batch).ok()
            }
            BackendSpec::Threads(CounterSpec::Shard(_, _, shards)) => Some(*shards),
            _ => None,
        }
    }

    /// Sets the `:N`; `false` when the family takes none.
    fn set_parameter(&mut self, n: usize) -> bool {
        match self {
            BackendSpec::Threads(CounterSpec::Batch(_, config)) => config.max_batch = n as u64,
            BackendSpec::Threads(CounterSpec::Shard(_, _, shards)) => *shards = n,
            _ => return false,
        }
        true
    }

    /// The accepted flavor strings, `|`-separated, for usage text.
    #[must_use]
    pub fn grammar() -> String {
        let families: Vec<String> = Self::all()
            .iter()
            .map(|spec| match spec.parameter() {
                Some(_) => format!("{}[:N]", spec.name()),
                None => spec.name().to_string(),
            })
            .collect();
        families.join("|")
    }

    /// Builds the backend over `topology`.
    ///
    /// # Errors
    ///
    /// Returns the [`SpecError`] of [`CounterSpec::check`] when the
    /// counter cannot be built over this topology.
    pub fn build<'a>(
        &self,
        topology: &'a Topology,
        seed: u64,
    ) -> Result<Box<dyn Backend + 'a>, SpecError> {
        Ok(match *self {
            BackendSpec::Sim(config) => {
                Box::new(SimBackend::new(topology, SimConfig { seed, ..config }))
            }
            BackendSpec::Threads(counter) => Box::new(ShmBackend::new(topology, counter, seed)?),
            BackendSpec::Async(config) => Box::new(AsyncBackend::new(
                topology,
                BalancerKind::WaitFree,
                config,
                seed,
            )),
        })
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())?;
        match self.parameter() {
            Some(n) => write!(f, ":{n}"),
            None => Ok(()),
        }
    }
}

impl FromStr for BackendSpec {
    type Err = SpecError;

    fn from_str(text: &str) -> Result<Self, SpecError> {
        let (family, parameter) = match text.split_once(':') {
            Some((family, parameter)) => (family, Some(parameter)),
            None => (text, None),
        };
        let mut spec = Self::all()
            .into_iter()
            .find(|spec| spec.name() == family)
            .ok_or_else(|| SpecError::UnknownFamily {
                given: text.to_string(),
                families: Self::grammar(),
            })?;
        if let Some(parameter) = parameter {
            let n = parameter.parse::<usize>().ok().filter(|&n| n > 0);
            if !n.is_some_and(|n| spec.set_parameter(n)) {
                return Err(SpecError::BadParameter(text.to_string()));
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::constructions;

    fn workload(clients: usize, ops: usize) -> Workload {
        Workload {
            total_ops: ops,
            ..Workload::paper(clients, 0, 0)
        }
    }

    #[test]
    fn every_family_round_trips_builds_and_counts() {
        let net = constructions::bitonic(16).unwrap();
        for spec in BackendSpec::all() {
            assert_eq!(spec.to_string().parse(), Ok(spec));
            let backend = spec.build(&net, 7).unwrap();
            assert_eq!(backend.name(), spec.name());
            let outcome = backend.run(&workload(4, 400));
            assert_eq!(outcome.backend, spec.name());
            assert_eq!(outcome.stats.operations.len(), 400, "{spec}");
            assert!(outcome.counts_exactly(), "{spec}");
            assert_eq!(outcome.stats.output_counts.total(), 400, "{spec}");
            assert_eq!(outcome.stats.output_counts.width(), 16, "{spec}");
            assert!(
                outcome.has_step_property() || spec.relaxes_step(),
                "{spec} lost the step property"
            );
        }
    }

    #[test]
    fn the_grammar_is_the_families_with_their_parameters() {
        assert_eq!(
            BackendSpec::grammar(),
            "sim|shm|shm-batch[:N]|shm-shard[:N]|async"
        );
        let spec: BackendSpec = "shm-shard:2".parse().unwrap();
        assert!(matches!(
            spec,
            BackendSpec::Threads(CounterSpec::Shard(_, _, 2))
        ));
        assert_eq!(spec.to_string(), "shm-shard:2");
        assert_eq!(
            "shm-batch".parse::<BackendSpec>().unwrap().to_string(),
            "shm-batch:8"
        );
    }

    #[test]
    fn malformed_flavors_are_typed_errors() {
        let parse = |text: &str| text.parse::<BackendSpec>().unwrap_err();
        for text in [
            "gpu",
            "shm-batchx",
            "",
            "shm-",
            "SHM",
            "mp",
            "mp-elim",
            "async-mp",
            "async-batch",
            "async-batch:8",
            "async-shard:4",
        ] {
            assert_eq!(
                parse(text),
                SpecError::UnknownFamily {
                    given: text.to_string(),
                    families: BackendSpec::grammar(),
                }
            );
        }
        for text in [
            "shm-batch:0",
            "shm-batch:x",
            "shm-batch:",
            "shm-shard:-1",
            "shm:3",
            "sim:1",
            "async:2",
        ] {
            assert_eq!(parse(text), SpecError::BadParameter(text.to_string()));
        }
        assert!(parse("gpu").to_string().contains("shm-batch[:N]"));
    }

    #[test]
    fn specs_a_topology_cannot_host_are_refused_at_build_time() {
        let wide = constructions::bitonic(16).unwrap();
        let narrow = constructions::bitonic(4).unwrap();
        let refused = |text: &str, net| text.parse::<BackendSpec>().unwrap().build(net, 1).err();
        assert_eq!(
            refused("shm-shard:3", &wide),
            Some(SpecError::ShardSplit {
                shards: 3,
                width: 16
            })
        );
        // shard width 1 is not a balancing network
        assert_eq!(
            refused("shm-shard:4", &narrow),
            Some(SpecError::ShardSplit {
                shards: 4,
                width: 4
            })
        );
        assert_eq!(refused("shm-shard:2", &narrow), None);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn frontend_families_report_telemetry() {
        let net = constructions::bitonic(16).unwrap();
        let run = |text: &str| {
            let spec: BackendSpec = text.parse().unwrap();
            let outcome = spec.build(&net, 3).unwrap().run(&workload(4, 200));
            outcome.frontend.expect("obs build snapshots")
        };
        let m = run("shm-batch");
        assert_eq!(m.batch_hist.sum() + m.solo_ops, 200);
        let m = run("shm-shard");
        assert_eq!(m.shard_ops.iter().sum::<u64>(), 200);
    }
}
