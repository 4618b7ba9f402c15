//! Golden-snapshot pinning of the simulation engine.
//!
//! Every built-in scenario × controller is run once at a fixed seed (the
//! scenario's own `seed_for` derivation, replication 0, middle load point)
//! and the full `SimReport` — every counter, every utilisation sample,
//! every derived ratio — is compared byte-for-byte against a JSON snapshot
//! committed under `tests/golden/`.
//!
//! The snapshots were captured on the pre-dense-state engine (`HashMap`
//! stations/users/connections, heap-owned events); the arena/slab engine
//! must reproduce them **bit-identically**.  Any storage or event-loop
//! change that alters a single decision, RNG draw, or sample shows up here
//! as a diff, not as a silent drift of the paper's figures.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_snapshots
//! ```

use facs_suite::prelude::*;
use std::path::PathBuf;

/// The controllers pinned for every scenario: the scenario's own list plus
/// the LUT backend (no built-in scenario sweeps it, but its decisions must
/// stay pinned too).
fn pinned_controllers(spec: &ScenarioSpec) -> Vec<ControllerSpec> {
    let mut controllers = spec.controllers.clone();
    if !controllers.contains(&ControllerSpec::FacsPLut) {
        controllers.push(ControllerSpec::FacsPLut);
    }
    controllers
}

/// One snapshot cell: the scenario's middle load point, replication 0.
fn run_cell(spec: &ScenarioSpec, controller: &ControllerSpec) -> SimReport {
    run_cell_as(spec, controller, controller)
}

/// [`run_cell`] with `controller` deciding on the configuration of
/// `configured`'s cell (the seed derives from the controller label).
fn run_cell_as(
    spec: &ScenarioSpec,
    controller: &ControllerSpec,
    configured: &ControllerSpec,
) -> SimReport {
    let load_index = spec.load_points.len() / 2;
    let load = spec.load_points[load_index];
    let mut boxed = controller.build();
    let mut sim = Simulator::new(spec.sim_config(configured, load_index, 0));
    match spec.load_mode {
        LoadMode::Batch => sim.run_batch(boxed.as_mut(), load),
        LoadMode::RequestsPerWindow { .. } | LoadMode::TotalRequests => {
            sim.run_poisson(boxed.as_mut(), load)
        }
    }
}

fn snapshot_path(scenario: &str, controller: &ControllerSpec) -> PathBuf {
    let label: String = controller
        .label()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{scenario}__{label}.json"))
}

#[test]
fn sim_reports_match_committed_golden_snapshots() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut checked = 0;
    for name in builtin_names() {
        let spec = builtin(name).expect("builtin_names lists only builtins");
        for controller in pinned_controllers(&spec) {
            let report = run_cell(&spec, &controller);
            let json = serde_json::to_string_pretty(&report).expect("reports serialize");
            let path = snapshot_path(name, &controller);
            if update {
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, format!("{json}\n")).unwrap();
            } else {
                let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    panic!(
                        "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                        path.display()
                    )
                });
                assert_eq!(
                    expected.trim_end(),
                    json,
                    "SimReport for scenario `{name}` × controller `{}` drifted from its \
                     golden snapshot {}; if the change is intentional, regenerate with \
                     UPDATE_GOLDEN=1",
                    controller.label(),
                    path.display()
                );
            }
            checked += 1;
        }
    }
    // 5 scenarios × (3..=4 own controllers + FACS-P-LUT).
    assert!(checked >= 20, "expected at least 20 snapshot cells");
}

/// The LUT backend decides every call as the compiled controller does:
/// each committed FACS-P-LUT snapshot is the report compiled FACS-P gives
/// on the same configuration, apart from the controller label.
#[test]
fn facs_p_lut_snapshots_equal_compiled_facs_p_reports() {
    for name in builtin_names() {
        let spec = builtin(name).expect("builtin_names lists only builtins");
        let mut report = run_cell_as(&spec, &ControllerSpec::FacsP, &ControllerSpec::FacsPLut);
        assert_eq!(report.controller, "facs-p");
        report.controller = "facs-p-lut".to_string();
        let json = serde_json::to_string_pretty(&report).expect("reports serialize");
        let path = snapshot_path(name, &ControllerSpec::FacsPLut);
        let expected = std::fs::read_to_string(&path).expect("committed snapshot");
        assert_eq!(
            expected.trim_end(),
            json,
            "compiled FACS-P on `{name}` differs from {}",
            path.display()
        );
    }
}

/// The snapshot harness itself must be deterministic: running a cell twice
/// gives byte-identical JSON (guards against accidental nondeterminism in
/// the harness masking real engine drift).
#[test]
fn snapshot_cells_are_reproducible() {
    let spec = builtin("highway-handoff").unwrap();
    let controller = ControllerSpec::FacsP;
    let a = serde_json::to_string(&run_cell(&spec, &controller)).unwrap();
    let b = serde_json::to_string(&run_cell(&spec, &controller)).unwrap();
    assert_eq!(a, b);
}
