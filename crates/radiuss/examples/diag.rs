//! Diagnostic: per-phase timing and solver stats per encoding.
fn main() {
    use spackle_core::{Concretizer, ConcretizerConfig};
    let env = spackle_radiuss::ExperimentEnv::setup(0, 42);
    for root in ["ascent", "conduit", "caliper", "variorum", "sundials", "spot"] {
        let spec = spackle_spec::parse_spec(root).unwrap();
        for (label, cfg) in [
            ("old", ConcretizerConfig::old_spack()),
            ("new", ConcretizerConfig::splice_spack_disabled()),
        ] {
            let sol = Concretizer::new(&env.repo_plain)
                .with_config(cfg)
                .with_reusable(env.local.clone())
                .concretize(&spec)
                .unwrap();
            let s = &sol.stats;
            println!(
                "{root:8} {label}: total={:>8.2?} encode={:>7.2?} ground={:>8.2?} \
                 translate={:>8.2?} search={:>8.2?} \
                 atoms={} rules={} vars={} conflicts={} probes={} cegar={}",
                s.total_time, s.encode_time, s.solver.ground_time, s.solver.translate_time,
                s.solver.solve_time,
                s.solver.ground_atoms, s.solver.ground_rules, s.solver.sat_vars,
                s.solver.conflicts, s.solver.optimize_probes, s.solver.stability_restarts
            );
        }
    }
}
