//! Offline stand-in for the `fail` crate: named failpoints with
//! deterministic trigger schedules.
//!
//! This workspace builds hermetically, so fault injection is vendored
//! rather than pulled from crates.io. Durability and serving code marks
//! its crash windows with named failpoints
//! (`igcn_fail::fail_point!("store::wal::append")`); tests and the
//! `chaos_tool` campaigns then arm those points with a *schedule* (when
//! to fire) and an *action* (what the instrumented site should do), and
//! exercise recovery paths that are unreachable from the public API.
//!
//! # Cost when disabled
//!
//! A process that never arms a failpoint pays **one relaxed atomic
//! load** per evaluation — no lock, no allocation, no map lookup (the
//! registry is only consulted once the global "armed" flag is set).
//! `chaos_tool --quick` pins this with a timing check against an empty
//! loop.
//!
//! # Configuration grammar
//!
//! A point is armed with a spec string, programmatically
//! ([`cfg()`]) or via the `IGCN_FAILPOINTS` environment variable
//! ([`init_from_env`], `name=spec;name2=spec2`):
//!
//! ```text
//! spec    := [trigger ":"] action
//! trigger := "always" | "once" | "nth(" N ")" | "prob(" P "," SEED ")"
//! action  := "return" | "truncate(" K ")" | "panic" | "delay(" MS ")"
//! ```
//!
//! `always` fires on every hit, `once` on the first hit only, `nth(N)`
//! on the N-th hit (1-based) only, and `prob(P, SEED)` on each hit
//! independently with probability `P` drawn from a dedicated
//! xoshiro256++ stream seeded with `SEED` — fully deterministic per
//! seed. The trigger defaults to `always`.
//!
//! `panic` and `delay` are executed *inside* [`eval`]; `return` and
//! `truncate(K)` surface to the instrumented site, which maps them onto
//! its own typed error (and, for truncate, tears its write after the
//! first `K` bytes — simulating a crash mid-write).
//!
//! # Test isolation
//!
//! The registry is process-global, so concurrently running tests that
//! arm points would trample each other. [`FailGuard::setup`] serialises
//! them behind a global mutex and clears every point on drop:
//!
//! ```
//! let guard = igcn_fail::FailGuard::setup();
//! guard.cfg("demo::op", "nth(2):return").unwrap();
//! assert_eq!(igcn_fail::eval("demo::op"), None); // hit 1
//! assert_eq!(igcn_fail::eval("demo::op"), Some(igcn_fail::Action::ReturnErr)); // hit 2
//! assert_eq!(igcn_fail::eval("demo::op"), None); // nth fires once
//! drop(guard); // disarms everything
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What an armed failpoint instructs the instrumented site to do.
///
/// `Panic` and `Delay` never escape [`eval`] (they are executed there);
/// the site only ever observes the two "return-class" actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fail the operation with the site's typed injected-fault error.
    ReturnErr,
    /// Tear the site's write after the first `K` bytes, then fail —
    /// the on-disk signature of a crash mid-write.
    Truncate(usize),
    /// Panic at the site (executed inside [`eval`]).
    Panic,
    /// Sleep for the given duration, then proceed normally (executed
    /// inside [`eval`]).
    Delay(Duration),
}

/// When an armed failpoint fires.
#[derive(Debug, Clone)]
enum Trigger {
    /// Every hit.
    Always,
    /// The first hit only.
    Once,
    /// The `n`-th hit (1-based) only.
    Nth(u64),
    /// Each hit independently with probability `p`, from a dedicated
    /// deterministic stream.
    Prob { p: f64, rng: StdRng },
}

#[derive(Debug)]
struct PointState {
    trigger: Trigger,
    action: Action,
    /// Evaluations of this point since it was armed.
    hits: u64,
    /// Times the trigger fired.
    fired: u64,
}

impl PointState {
    /// Records one hit and decides whether the point fires on it.
    fn hit(&mut self) -> Option<Action> {
        self.hits += 1;
        let fire = match &mut self.trigger {
            Trigger::Always => true,
            Trigger::Once => self.hits == 1,
            Trigger::Nth(n) => self.hits == *n,
            Trigger::Prob { p, rng } => rng.gen_bool(*p),
        };
        if fire {
            self.fired += 1;
            Some(self.action)
        } else {
            None
        }
    }
}

/// Fast-path flag: false while no point is armed, so [`eval`] costs one
/// relaxed load in the common (production) case.
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, PointState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, PointState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Locks the registry, recovering from poisoning — a failpoint armed
/// with `panic` poisons the lock by design when the panicking thread
/// still holds it elsewhere, and the registry (plain data) stays valid.
fn lock_registry() -> MutexGuard<'static, HashMap<String, PointState>> {
    registry().lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Evaluates the failpoint `name` at an instrumented site.
///
/// Returns `None` when the point is not armed or its trigger does not
/// fire on this hit. `Panic` and `Delay` actions are executed here;
/// `ReturnErr` / `Truncate` are returned for the site to map onto its
/// typed error.
///
/// # Panics
///
/// Panics (by design) when the point fires with [`Action::Panic`].
#[inline]
pub fn eval(name: &str) -> Option<Action> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    eval_armed(name)
}

#[inline(never)]
fn eval_armed(name: &str) -> Option<Action> {
    let action = { lock_registry().get_mut(name).and_then(PointState::hit) };
    match action {
        Some(Action::Panic) => panic!("failpoint {name} fired: injected panic"),
        Some(Action::Delay(d)) => {
            std::thread::sleep(d);
            None
        }
        other => other,
    }
}

/// Marks a failpoint site. With one argument, evaluates the point
/// (panic/delay actions execute; return-class actions are ignored —
/// use the two-argument form at sites that can fail). With a handler,
/// **returns** `handler(action)` from the enclosing function when the
/// point fires with a return-class action.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{
        let _ = $crate::eval($name);
    }};
    ($name:expr, $handler:expr) => {
        if let Some(action) = $crate::eval($name) {
            #[allow(clippy::redundant_closure_call)]
            return ($handler)(action);
        }
    };
}

/// Arms failpoint `name` with `spec` (see the crate docs for the
/// grammar). Re-arming an already-armed point replaces its schedule and
/// resets its hit counter.
///
/// # Errors
///
/// A human-readable description of the first grammar violation.
pub fn cfg(name: impl Into<String>, spec: &str) -> Result<(), String> {
    let (trigger, action) = parse_spec(spec)?;
    lock_registry().insert(name.into(), PointState { trigger, action, hits: 0, fired: 0 });
    ARMED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Disarms failpoint `name` (a no-op if it was not armed).
pub fn remove(name: &str) {
    let mut reg = lock_registry();
    reg.remove(name);
    if reg.is_empty() {
        ARMED.store(false, Ordering::Relaxed);
    }
}

/// Disarms every failpoint and restores the zero-cost fast path.
pub fn teardown() {
    let mut reg = lock_registry();
    reg.clear();
    ARMED.store(false, Ordering::Relaxed);
}

/// Times failpoint `name` was evaluated since it was armed (0 if not
/// armed) — lets tests assert an instrumented site was actually
/// reached.
pub fn hits(name: &str) -> u64 {
    lock_registry().get(name).map_or(0, |p| p.hits)
}

/// Times failpoint `name` fired since it was armed (0 if not armed).
pub fn fired(name: &str) -> u64 {
    lock_registry().get(name).map_or(0, |p| p.fired)
}

/// Names of every currently armed failpoint, sorted.
pub fn armed_points() -> Vec<String> {
    let mut names: Vec<String> = lock_registry().keys().cloned().collect();
    names.sort();
    names
}

/// Arms every point named in the `IGCN_FAILPOINTS` environment variable
/// (`name=spec;name2=spec2`; empty segments are ignored). Call it from
/// binary entry points — libraries never read the environment
/// themselves.
///
/// # Errors
///
/// The first malformed segment, with its offending text.
pub fn init_from_env() -> Result<(), String> {
    let Ok(raw) = std::env::var("IGCN_FAILPOINTS") else {
        return Ok(());
    };
    for segment in raw.split(';').map(str::trim).filter(|s| !s.is_empty()) {
        let (name, spec) = segment
            .split_once('=')
            .ok_or_else(|| format!("IGCN_FAILPOINTS segment {segment:?} lacks '='"))?;
        cfg(name.trim(), spec.trim()).map_err(|e| format!("failpoint {name:?}: {e}"))?;
    }
    Ok(())
}

fn parse_spec(spec: &str) -> Result<(Trigger, Action), String> {
    let spec = spec.trim();
    // The trigger:action separator is the first ':' outside parentheses
    // (specs like "nth(3):truncate(17)" contain no nested colons).
    let (trigger_text, action_text) = match spec.split_once(':') {
        Some((t, a)) => (Some(t.trim()), a.trim()),
        None => (None, spec),
    };
    let trigger = match trigger_text {
        None | Some("always") => Trigger::Always,
        Some("once") => Trigger::Once,
        Some(t) => {
            if let Some(n) = parse_call(t, "nth")? {
                let n: u64 =
                    n.parse().map_err(|_| format!("nth() wants a positive integer, got {n:?}"))?;
                if n == 0 {
                    return Err("nth() is 1-based; nth(0) never fires".to_string());
                }
                Trigger::Nth(n)
            } else if let Some(args) = parse_call(t, "prob")? {
                let (p, seed) = args
                    .split_once(',')
                    .ok_or_else(|| format!("prob() wants \"p, seed\", got {args:?}"))?;
                let p: f64 = p
                    .trim()
                    .parse()
                    .map_err(|_| format!("prob() probability {p:?} is not a float"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("prob() probability {p} must be in [0, 1]"));
                }
                let seed: u64 = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("prob() seed {seed:?} is not a u64"))?;
                Trigger::Prob { p, rng: StdRng::seed_from_u64(seed) }
            } else {
                return Err(format!("unknown trigger {t:?}"));
            }
        }
    };
    let action = match action_text {
        "return" => Action::ReturnErr,
        "panic" => Action::Panic,
        a => {
            if let Some(k) = parse_call(a, "truncate")? {
                let k: usize =
                    k.parse().map_err(|_| format!("truncate() wants a byte count, got {k:?}"))?;
                Action::Truncate(k)
            } else if let Some(ms) = parse_call(a, "delay")? {
                let ms: u64 =
                    ms.parse().map_err(|_| format!("delay() wants milliseconds, got {ms:?}"))?;
                Action::Delay(Duration::from_millis(ms))
            } else {
                return Err(format!("unknown action {a:?}"));
            }
        }
    };
    Ok((trigger, action))
}

/// Matches `func(args)` and returns the trimmed `args` text, `None` if
/// `text` does not start with `func(`.
fn parse_call<'a>(text: &'a str, func: &str) -> Result<Option<&'a str>, String> {
    let Some(rest) = text.strip_prefix(func) else {
        return Ok(None);
    };
    let rest = rest.trim_start();
    let Some(inner) = rest.strip_prefix('(') else {
        return Ok(None);
    };
    let inner = inner
        .strip_suffix(')')
        .ok_or_else(|| format!("{func}(... missing closing parenthesis in {text:?}"))?;
    Ok(Some(inner.trim()))
}

/// Serialises failpoint-using tests behind a global mutex and disarms
/// everything (setup *and* drop), so concurrently running tests never
/// observe each other's schedules.
pub struct FailGuard {
    _lock: MutexGuard<'static, ()>,
}

impl FailGuard {
    /// Acquires the global failpoint lock and clears the registry.
    pub fn setup() -> FailGuard {
        static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let lock = TEST_LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            // A previous test panicking (often deliberately, via an
            // armed `panic` action) poisons the lock; the () payload
            // cannot be corrupt.
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        teardown();
        FailGuard { _lock: lock }
    }

    /// Arms a failpoint for the guard's scope (see [`cfg()`]).
    ///
    /// # Errors
    ///
    /// As [`cfg()`].
    pub fn cfg(&self, name: impl Into<String>, spec: &str) -> Result<(), String> {
        cfg(name, spec)
    }

    /// Disarms one point without ending the scope (see [`remove`]).
    pub fn remove(&self, name: &str) {
        remove(name);
    }
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_points_are_silent() {
        let _guard = FailGuard::setup();
        assert_eq!(eval("never::armed"), None);
        assert_eq!(hits("never::armed"), 0);
    }

    #[test]
    fn always_fires_every_hit() {
        let guard = FailGuard::setup();
        guard.cfg("t::always", "return").unwrap();
        for _ in 0..5 {
            assert_eq!(eval("t::always"), Some(Action::ReturnErr));
        }
        assert_eq!(hits("t::always"), 5);
        assert_eq!(fired("t::always"), 5);
    }

    #[test]
    fn once_fires_only_first_hit() {
        let guard = FailGuard::setup();
        guard.cfg("t::once", "once:return").unwrap();
        assert_eq!(eval("t::once"), Some(Action::ReturnErr));
        assert_eq!(eval("t::once"), None);
        assert_eq!(eval("t::once"), None);
        assert_eq!(fired("t::once"), 1);
    }

    #[test]
    fn nth_fires_only_that_hit() {
        let guard = FailGuard::setup();
        guard.cfg("t::nth", "nth(3):truncate(17)").unwrap();
        assert_eq!(eval("t::nth"), None);
        assert_eq!(eval("t::nth"), None);
        assert_eq!(eval("t::nth"), Some(Action::Truncate(17)));
        assert_eq!(eval("t::nth"), None);
    }

    #[test]
    fn prob_is_deterministic_per_seed() {
        let draw = |seed: u64| {
            let guard = FailGuard::setup();
            guard.cfg("t::prob", &format!("prob(0.5, {seed}):return")).unwrap();
            (0..64).map(|_| eval("t::prob").is_some()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        let fired = draw(42).iter().filter(|f| **f).count();
        assert!((10..=54).contains(&fired), "p=0.5 over 64 hits fired {fired} times");
    }

    #[test]
    fn panic_action_panics_inside_eval() {
        let guard = FailGuard::setup();
        guard.cfg("t::panic", "panic").unwrap();
        let caught = std::panic::catch_unwind(|| eval("t::panic")).expect_err("must panic");
        let msg = caught.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("t::panic"), "panic names the point: {msg}");
    }

    #[test]
    fn delay_action_sleeps_then_proceeds() {
        let guard = FailGuard::setup();
        guard.cfg("t::delay", "delay(15)").unwrap();
        let start = std::time::Instant::now();
        assert_eq!(eval("t::delay"), None);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn remove_and_teardown_disarm() {
        let guard = FailGuard::setup();
        guard.cfg("t::a", "return").unwrap();
        guard.cfg("t::b", "return").unwrap();
        assert_eq!(armed_points(), vec!["t::a".to_string(), "t::b".to_string()]);
        guard.remove("t::a");
        assert_eq!(eval("t::a"), None);
        assert_eq!(eval("t::b"), Some(Action::ReturnErr));
        teardown();
        assert_eq!(eval("t::b"), None);
        assert!(armed_points().is_empty());
    }

    #[test]
    fn env_parsing_arms_multiple_points() {
        let _guard = FailGuard::setup();
        // init_from_env reads the process environment, which tests must
        // not mutate; exercise the same path via cfg on split segments.
        let raw = "a::x = once:return ; b::y = nth(2):delay(1)";
        for segment in raw.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            let (name, spec) = segment.split_once('=').unwrap();
            cfg(name.trim(), spec.trim()).unwrap();
        }
        assert_eq!(armed_points(), vec!["a::x".to_string(), "b::y".to_string()]);
        assert_eq!(eval("a::x"), Some(Action::ReturnErr));
        assert_eq!(eval("a::x"), None);
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for (spec, needle) in [
            ("sometimes:return", "unknown trigger"),
            ("explode", "unknown action"),
            ("nth(0):return", "1-based"),
            ("nth(x):return", "positive integer"),
            ("prob(1.5, 3):return", "[0, 1]"),
            ("prob(0.5):return", "p, seed"),
            ("truncate(", "closing parenthesis"),
            ("delay(soon)", "milliseconds"),
        ] {
            let err = parse_spec(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec:?} -> {err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn fail_point_macro_returns_through_handler() {
        fn guarded_op() -> Result<u32, String> {
            fail_point!("t::macro", |action: Action| Err(format!("injected: {action:?}")));
            Ok(7)
        }
        let guard = FailGuard::setup();
        assert_eq!(guarded_op(), Ok(7));
        guard.cfg("t::macro", "return").unwrap();
        assert!(guarded_op().unwrap_err().contains("ReturnErr"));
    }

    #[test]
    fn rearming_resets_the_schedule() {
        let guard = FailGuard::setup();
        guard.cfg("t::rearm", "nth(2):return").unwrap();
        assert_eq!(eval("t::rearm"), None);
        guard.cfg("t::rearm", "nth(2):return").unwrap();
        assert_eq!(eval("t::rearm"), None, "counter restarted");
        assert_eq!(eval("t::rearm"), Some(Action::ReturnErr));
    }
}
