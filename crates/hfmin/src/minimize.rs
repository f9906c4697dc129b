//! The hazard-free two-level minimization driver: spec → required cubes →
//! DHF primes → unate covering → cover.

use crate::cover::Cover;
use crate::covering::Covering;
use crate::error::HfminError;
use crate::primes::{dhf_primes_with_stats, is_dhf_implicant};
use crate::spec::FunctionSpec;

/// Options for [`minimize`].
#[derive(Clone, Copy, Debug)]
pub struct MinimizeOptions {
    /// Run the exact branch-and-bound solver (fall back to greedy when the
    /// node budget is exhausted).
    pub exact: bool,
    /// Node budget for the exact solver.
    pub node_budget: usize,
}

impl Default for MinimizeOptions {
    fn default() -> Self {
        MinimizeOptions {
            exact: true,
            node_budget: 2_000_000,
        }
    }
}

/// Work counters from one [`minimize_with_stats`] run. All fields are
/// deterministic functions of the spec (no wall clocks), so they can be
/// summed across threads and compared between runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinimizeStats {
    /// Required cubes (covering rows).
    pub required: usize,
    /// DHF primes generated (covering columns).
    pub primes: usize,
    /// Word-parallel cube operations: the prime walk's charge (see
    /// [`crate::PrimeStats`]) plus the covering-matrix containment tests.
    pub cube_ops: u64,
}

/// Minimizes a single-output hazard-free function.
///
/// Returns a cover in which every product is a DHF implicant and every
/// required cube of `spec` is contained in a single product — the
/// hazard-free correctness conditions of Nowick–Dill.
///
/// # Errors
///
/// * [`HfminError::Conflict`] — inconsistent specification.
/// * [`HfminError::IllegalRequiredCube`] / [`HfminError::NoCover`] — no
///   hazard-free cover exists.
pub fn minimize(spec: &FunctionSpec, opts: MinimizeOptions) -> Result<Cover, HfminError> {
    minimize_with_stats(spec, opts).map(|(cover, _)| cover)
}

/// [`minimize`], also returning work counters.
///
/// # Errors
///
/// Same as [`minimize`].
pub fn minimize_with_stats(
    spec: &FunctionSpec,
    opts: MinimizeOptions,
) -> Result<(Cover, MinimizeStats), HfminError> {
    spec.check_consistency()?;
    let required = spec.required_cubes();
    if required.is_empty() {
        return Ok((Cover::new(), MinimizeStats::default()));
    }
    let off = spec.off_cover();
    let privileged = spec.privileged_cubes();
    let (primes, prime_stats) = dhf_primes_with_stats(&required, &off, &privileged)?;
    let problem = Covering::build(&required, &primes)?;
    let stats = MinimizeStats {
        required: required.len(),
        primes: primes.len(),
        cube_ops: prime_stats.cube_ops + problem.cube_ops(),
    };
    let chosen = if opts.exact {
        match problem.solve_exact(opts.node_budget) {
            Ok(c) => c,
            Err(HfminError::SearchBudget(_)) => problem.solve_greedy(),
            Err(e) => return Err(e),
        }
    } else {
        problem.solve_greedy()
    };
    let cover: Cover = chosen.into_iter().map(|i| primes[i].clone()).collect();
    debug_assert!(verify(spec, &cover).is_ok());
    Ok((cover, stats))
}

/// Independently verifies the hazard-free covering conditions — used by
/// tests and as a debug assertion after minimization.
///
/// # Errors
///
/// * [`HfminError::Conflict`] — a product intersects the OFF-set.
/// * [`HfminError::NoCover`] — a required cube is not single-cube-contained.
/// * [`HfminError::IllegalRequiredCube`] — a product illegally intersects a
///   privileged cube.
pub fn verify(spec: &FunctionSpec, cover: &Cover) -> Result<(), HfminError> {
    let off = spec.off_cover();
    let privileged = spec.privileged_cubes();
    for p in cover {
        if off.intersects(p) {
            return Err(HfminError::Conflict(p.clone()));
        }
        if !is_dhf_implicant(p, &off, &privileged) {
            return Err(HfminError::IllegalRequiredCube(p.clone()));
        }
    }
    for r in spec.required_cubes() {
        if !cover.single_cube_contains(&r) {
            return Err(HfminError::NoCover(r));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;
    use crate::spec::SpecTransition;

    fn tr(start: &str, end: &str, from: bool, to: bool) -> SpecTransition {
        SpecTransition {
            start: Cube::parse(start),
            end: Cube::parse(end),
            from,
            to,
        }
    }

    #[test]
    fn empty_spec_minimizes_to_constant_zero() {
        let spec = FunctionSpec::new(3);
        let c = minimize(&spec, MinimizeOptions::default()).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn stats_report_problem_shape() {
        let mut spec = FunctionSpec::new(2);
        spec.push(tr("00", "01", true, true)).unwrap();
        let (c, stats) = minimize_with_stats(&spec, MinimizeOptions::default()).unwrap();
        assert_eq!(c.products(), 1);
        assert!(stats.required >= 1);
        assert!(stats.primes >= 1);
        assert!(stats.cube_ops > 0);
        // Deterministic: a second run reports identical counters.
        let (_, again) = minimize_with_stats(&spec, MinimizeOptions::default()).unwrap();
        assert_eq!(stats, again);
    }

    #[test]
    fn single_static_one_transition() {
        let mut spec = FunctionSpec::new(2);
        spec.push(tr("00", "01", true, true)).unwrap();
        let c = minimize(&spec, MinimizeOptions::default()).unwrap();
        assert_eq!(c.products(), 1);
        assert!(c.cubes()[0].contains(&Cube::parse("0-")));
        verify(&spec, &c).unwrap();
    }

    #[test]
    fn dynamic_fall_needs_two_products_here() {
        // f: 1 -> 0 over A=00 -> B=11; required cubes 0- and -0 cannot be a
        // single product since 11 is OFF.
        let mut spec = FunctionSpec::new(2);
        spec.push(tr("00", "11", true, false)).unwrap();
        let c = minimize(&spec, MinimizeOptions::default()).unwrap();
        assert_eq!(c.products(), 2);
        verify(&spec, &c).unwrap();
    }

    #[test]
    fn hazard_free_cover_larger_than_plain_cover() {
        // The classic phenomenon: hazard-freedom may force extra products.
        // Build a function with a privileged cube that forbids the usual
        // consensus-style merge.
        //
        // Vars x,y,z. Transitions:
        //  t1: 000 -> 011 with f 1->1        (required cube 0--)
        //  t2: 011 -> 110 with f 1->0        (privileged (--- wait 3 vars))
        let mut spec = FunctionSpec::new(3);
        spec.push(tr("000", "011", true, true)).unwrap();
        spec.push(tr("011", "110", true, false)).unwrap();
        let c = minimize(&spec, MinimizeOptions::default()).unwrap();
        verify(&spec, &c).unwrap();
        // Every product intersecting the t2 transition cube (-1- ∪ …) must
        // contain its start 011.
        for p in &c {
            let t = Cube::parse("011").supercube(&Cube::parse("110"));
            assert!(!p.intersects(&t) || p.contains(&Cube::parse("011")), "{p}");
        }
    }

    #[test]
    fn greedy_mode_also_verifies() {
        let mut spec = FunctionSpec::new(3);
        spec.push(tr("000", "011", true, true)).unwrap();
        spec.push(tr("011", "111", true, false)).unwrap();
        spec.push(tr("111", "100", false, false)).unwrap();
        let c = minimize(
            &spec,
            MinimizeOptions {
                exact: false,
                node_budget: 0,
            },
        )
        .unwrap();
        verify(&spec, &c).unwrap();
    }

    #[test]
    fn off_products_rejected_by_verify() {
        let mut spec = FunctionSpec::new(2);
        spec.push(tr("00", "01", true, true)).unwrap();
        spec.push(tr("01", "11", false, false)).unwrap();
        // wait: 01 appears both ON (end of t1, static 1) and in t2 as OFF.
        // Use a consistent pair instead:
        let mut spec = FunctionSpec::new(2);
        spec.push(tr("00", "01", true, true)).unwrap();
        spec.push(tr("10", "11", false, false)).unwrap();
        let bad = Cover::from_cubes(vec![Cube::parse("--")]);
        assert!(matches!(verify(&spec, &bad), Err(HfminError::Conflict(_))));
    }

    #[test]
    fn missing_required_cube_rejected_by_verify() {
        let mut spec = FunctionSpec::new(2);
        spec.push(tr("00", "01", true, true)).unwrap();
        let empty = Cover::new();
        assert!(matches!(verify(&spec, &empty), Err(HfminError::NoCover(_))));
    }
}

/// Functional verification: the cover equals the specified ON-set over the
/// care space (covers every ON point, intersects no OFF point). This is
/// the plain-correctness complement to [`verify`]'s hazard conditions.
///
/// # Errors
///
/// * [`HfminError::Conflict`] — a product intersects the OFF-set.
/// * [`HfminError::NoCover`] — some ON region is not covered (reported as
///   the uncovered cube).
pub fn verify_functional(spec: &FunctionSpec, cover: &Cover) -> Result<(), HfminError> {
    let off = spec.off_cover();
    for p in cover {
        if off.intersects(p) {
            return Err(HfminError::Conflict(p.clone()));
        }
    }
    for on in &spec.on_cover() {
        if !cover.covers(on) {
            return Err(HfminError::NoCover(on.clone()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod functional_tests {
    use super::*;
    use crate::cube::Cube;
    use crate::spec::SpecTransition;

    fn tr(start: &str, end: &str, from: bool, to: bool) -> SpecTransition {
        SpecTransition {
            start: Cube::parse(start),
            end: Cube::parse(end),
            from,
            to,
        }
    }

    #[test]
    fn minimized_covers_are_functionally_correct() {
        let mut spec = FunctionSpec::new(3);
        spec.push(tr("000", "011", true, true)).unwrap();
        spec.push(tr("011", "111", true, false)).unwrap();
        spec.push(tr("111", "100", false, false)).unwrap();
        let c = minimize(&spec, MinimizeOptions::default()).unwrap();
        verify_functional(&spec, &c).unwrap();
    }

    #[test]
    fn under_covering_is_detected() {
        let mut spec = FunctionSpec::new(2);
        spec.push(tr("00", "01", true, true)).unwrap();
        let empty = Cover::new();
        assert!(matches!(
            verify_functional(&spec, &empty),
            Err(HfminError::NoCover(_))
        ));
    }

    #[test]
    fn over_covering_is_detected() {
        let mut spec = FunctionSpec::new(2);
        spec.push(tr("00", "01", true, true)).unwrap();
        spec.push(tr("10", "11", false, false)).unwrap();
        let over = Cover::from_cubes(vec![Cube::parse("--")]);
        assert!(matches!(
            verify_functional(&spec, &over),
            Err(HfminError::Conflict(_))
        ));
    }
}
