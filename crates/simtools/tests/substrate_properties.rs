//! Property-based tests for the simulation substrate: tool models must
//! be total, deterministic, and convergent.
//!
//! Ported to the in-repo `harness` framework (note the dev-dependency
//! cycle: `harness` depends on `simtools::rng`, and these tests
//! dev-depend on `harness` — cargo permits cycles through
//! dev-dependencies).

use harness::prelude::*;
use simtools::{ToolInvocation, ToolModel};

fn arb_model() -> impl Strategy<Value = ToolModel> {
    (
        0.0f64..20.0,
        0.0f64..0.5,
        0.0f64..1.0,
        0.0f64..1.0,
        1u32..8,
        1u64..10_000,
    )
        .prop_map(|(base, bytes_factor, jitter, fp, max_iter, out)| {
            ToolModel::new("fuzz", base)
                .with_bytes_factor(bytes_factor)
                .with_jitter(jitter)
                .with_first_pass_rate(fp)
                .with_max_iterations(max_iter)
                .with_output_bytes(out)
        })
}

fn arb_invocation() -> impl Strategy<Value = ToolInvocation> {
    (0u64..1_000_000, 1u32..20, any_u64()).prop_map(|(input_bytes, iteration, seed)| {
        ToolInvocation {
            input_bytes,
            iteration,
            seed,
        }
    })
}

harness::props! {
    fn invoke_is_total_and_deterministic(model in arb_model(), req in arb_invocation()) {
        let a = model.invoke(&req);
        let b = model.invoke(&req);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.duration_days.is_finite());
        prop_assert!(a.duration_days > 0.0);
        prop_assert!(!a.output.is_empty());
    }

    fn convergence_guaranteed_at_max_iterations(model in arb_model(), seed in any_u64()) {
        let req = ToolInvocation {
            input_bytes: 1024,
            iteration: model.max_iterations(),
            seed,
        };
        prop_assert!(model.invoke(&req).converged);
    }

    fn expected_duration_monotone_in_input(model in arb_model(), a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            model.nominal_duration(small) <= model.nominal_duration(large) + 1e-9
        );
        prop_assert!(model.expected_activity_duration(small)
            <= model.expected_activity_duration(large) + 1e-9);
        // Iterations only add time.
        prop_assert!(model.expected_activity_duration(small)
            >= model.nominal_duration(small) - 1e-9);
    }
}
