//! The property runner: generates cases, reports failures, shrinks
//! counterexamples, and prints a replayable seed.

use crate::strategy::Strategy;
use hcc_types::rng::Xoshiro256;

/// A property's verdict for one input: `Ok(())` or a failure message.
pub type PropResult = Result<(), String>;

/// Runner configuration: case count, seed, and shrink budget.
///
/// The seed can be overridden at run time with the `HCC_CHECK_SEED`
/// environment variable, which is how a failure printed by a previous run
/// is replayed without editing the test.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases.
    pub cases: u32,
    /// Seed for the deterministic case stream.
    pub seed: u64,
    /// Maximum number of shrink candidates evaluated after a failure.
    pub max_shrink_steps: u32,
}

impl Config {
    /// Creates a config with a pinned seed, 64 cases, and a 1024-step
    /// shrink budget. `HCC_CHECK_SEED` (if set and parseable) overrides
    /// the seed.
    pub fn new(seed: u64) -> Self {
        let seed = std::env::var("HCC_CHECK_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(seed);
        Config {
            cases: 64,
            seed,
            max_shrink_steps: 1024,
        }
    }

    /// Sets the number of cases.
    ///
    /// # Panics
    /// Panics if `cases` is zero.
    pub fn with_cases(mut self, cases: u32) -> Self {
        assert!(cases > 0, "need at least one case");
        self.cases = cases;
        self
    }
}

/// Runs `prop` over `cfg.cases` values drawn from `strategy`.
///
/// On the first failing case the runner greedily shrinks the input: it
/// walks the strategy's candidate list, moves to the first candidate that
/// still fails, and repeats until no candidate fails or the shrink budget
/// is exhausted.
///
/// # Panics
/// Panics with a replayable report if the property fails for any input.
pub fn forall<S: Strategy>(cfg: &Config, strategy: &S, prop: impl Fn(&S::Value) -> PropResult) {
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    for case in 0..cfg.cases {
        let value = strategy.generate(&mut rng);
        if let Err(message) = prop(&value) {
            let (minimal, final_message, steps) =
                shrink_failure(cfg, strategy, &prop, value, message);
            panic!(
                "property failed (case {case} of {cases}, seed {seed})\n\
                 minimal counterexample after {steps} shrink step(s):\n\
                 {minimal:#?}\n\
                 failure: {final_message}\n\
                 replay: HCC_CHECK_SEED={seed}",
                cases = cfg.cases,
                seed = cfg.seed,
            );
        }
    }
}

/// Greedy shrink loop; returns the minimal failing value, its failure
/// message, and the number of accepted shrink steps.
fn shrink_failure<S: Strategy>(
    cfg: &Config,
    strategy: &S,
    prop: &impl Fn(&S::Value) -> PropResult,
    mut current: S::Value,
    mut message: String,
) -> (S::Value, String, u32) {
    let mut budget = cfg.max_shrink_steps;
    let mut accepted = 0u32;
    'outer: while budget > 0 {
        for candidate in strategy.shrink(&current) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let Err(m) = prop(&candidate) {
                current = candidate;
                message = m;
                accepted += 1;
                continue 'outer;
            }
        }
        break; // No candidate fails: `current` is minimal.
    }
    (current, message, accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{u64s, vecs};

    #[test]
    fn passing_property_completes() {
        forall(&Config::new(3), &u64s(0..100), |&x| {
            if x < 100 {
                Ok(())
            } else {
                Err("out of range".into())
            }
        });
    }

    #[test]
    fn failing_property_shrinks_to_boundary() {
        // Property: x < 50. The minimal counterexample is exactly 50.
        let err = std::panic::catch_unwind(|| {
            forall(&Config::new(11).with_cases(256), &u64s(0..1000), |&x| {
                if x < 50 {
                    Ok(())
                } else {
                    Err(format!("{x} >= 50"))
                }
            });
        })
        .expect_err("property must fail");
        let text = err
            .downcast_ref::<String>()
            .expect("panic payload is a string");
        assert!(text.contains("minimal counterexample"), "{text}");
        assert!(text.contains("50"), "{text}");
        assert!(text.contains("HCC_CHECK_SEED=11"), "{text}");
    }

    #[test]
    fn vector_counterexamples_shrink_short() {
        // Property: no vector contains a value >= 90. Minimal failing
        // input is a short vector whose offending element shrank to 90.
        let err = std::panic::catch_unwind(|| {
            forall(
                &Config::new(5).with_cases(256),
                &vecs(u64s(0..100), 0..40),
                |v| {
                    if v.iter().all(|&x| x < 90) {
                        Ok(())
                    } else {
                        Err("element >= 90".into())
                    }
                },
            );
        })
        .expect_err("property must fail");
        let text = err.downcast_ref::<String>().expect("string payload");
        // The shrunk vector should be very small (a handful of elements).
        let debug_start = text.find('[').expect("vector debug repr");
        let debug_end = text.find(']').expect("vector debug repr end");
        let inside = &text[debug_start + 1..debug_end];
        let elems = inside.split(',').filter(|s| !s.trim().is_empty()).count();
        assert!(elems <= 3, "expected tiny counterexample, got: {text}");
    }

    #[test]
    fn same_seed_reproduces_same_failure() {
        let capture = |seed: u64| {
            std::panic::catch_unwind(move || {
                forall(
                    &Config::new(seed).with_cases(64),
                    &u64s(0..1_000_000),
                    |&x| {
                        if x % 7 != 3 {
                            Ok(())
                        } else {
                            Err("hit".into())
                        }
                    },
                );
            })
            .expect_err("fails")
            .downcast_ref::<String>()
            .expect("string")
            .clone()
        };
        assert_eq!(capture(99), capture(99));
    }

    #[test]
    fn shrink_budget_zero_reports_raw_failure() {
        let err = std::panic::catch_unwind(|| {
            forall(
                &Config {
                    max_shrink_steps: 0,
                    ..Config::new(1)
                },
                &u64s(0..10),
                |_| Err("always".into()),
            );
        })
        .expect_err("fails");
        let text = err.downcast_ref::<String>().expect("string");
        assert!(text.contains("0 shrink step(s)"), "{text}");
    }
}
