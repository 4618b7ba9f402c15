//! `admitd` — admission control as a service.
//!
//! The paper's admission controllers decide in about a microsecond;
//! this crate is what production would actually deploy around that hot
//! path: a long-running TCP server that owns the authoritative
//! per-cell [`BaseStation`](cellsim::BaseStation) counter state behind
//! sharded locks, answers length-prefixed binary admission requests
//! from many concurrent connections with one controller decision per
//! frame, in arrival order, and exposes live Prometheus
//! metrics (`/metrics`) and a JSON occupancy snapshot (`/state`) over
//! plain HTTP/1.1 — `std::net` only, no async runtime.
//!
//! The crate splits into:
//!
//! - [`wire`] — the binary frame protocol (see `docs/SERVER.md`);
//! - [`state`] — the sharded world, the per-frame decision engine over
//!   same-cell groups and the snapshot/restore checkpoint path (see
//!   `docs/FAULTS.md`);
//! - [`server`] — accept loop, backpressure, HTTP endpoints, shutdown;
//! - [`chaos`] — seeded, deterministic transport-fault injection;
//! - [`client`] — the scenario-replay load generator, with capped
//!   exponential backoff and transparent reconnect;
//! - [`scenario`] — bit-exact reconstruction of a simulator scenario's
//!   arrival stream (the determinism tests replay it through the
//!   server and demand the engine's exact accept/reject sequence);
//! - [`metrics`] — the `admitd` telemetry schema.

pub mod chaos;
pub mod client;
pub mod http;
pub mod metrics;
pub mod scenario;
pub mod server;
pub mod state;
pub mod wire;

pub use chaos::{ChaosAction, ChaosConfig, ChaosInjector};
pub use client::{BenchConfig, BenchReport, RetryConfig};
pub use server::{Server, ServerConfig, ServerSummary};
pub use state::{RestoreError, World, WorldConfig, WorldSnapshot};

use sweep::ControllerSpec;

/// Parse a controller name as accepted by `admitd serve --controller`.
///
/// Accepted names: `facs-p`, `facs-p-lut`, `facs`, `scc`,
/// `always-accept`, and `threshold:NEW/HANDOFF` (two utilisation
/// fractions, e.g. `threshold:0.85/0.95`).
pub fn parse_controller(name: &str) -> Result<ControllerSpec, String> {
    match name {
        "facs-p" => Ok(ControllerSpec::FacsP),
        "facs-p-lut" => Ok(ControllerSpec::FacsPLut),
        "facs" => Ok(ControllerSpec::Facs),
        "scc" => Ok(ControllerSpec::Scc),
        "always-accept" => Ok(ControllerSpec::AlwaysAccept),
        other => {
            if let Some(rest) = other.strip_prefix("threshold:") {
                let (new_call, handoff) = rest
                    .split_once('/')
                    .ok_or_else(|| format!("expected threshold:NEW/HANDOFF, got `{other}`"))?;
                let parse = |s: &str| -> Result<f64, String> {
                    let v: f64 = s
                        .parse()
                        .map_err(|_| format!("`{s}` is not a number in `{other}`"))?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!("threshold `{s}` is outside [0, 1]"));
                    }
                    Ok(v)
                };
                Ok(ControllerSpec::Threshold {
                    new_call: parse(new_call)?,
                    handoff: parse(handoff)?,
                })
            } else {
                Err(format!(
                    "unknown controller `{other}` (expected facs-p, facs-p-lut, facs, scc, \
                     always-accept or threshold:NEW/HANDOFF)"
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_names_round_trip_through_labels() {
        for name in ["facs-p", "facs-p-lut", "facs", "scc", "always-accept"] {
            let spec = parse_controller(name).unwrap();
            assert_eq!(spec.label().to_lowercase(), name);
        }
        assert_eq!(
            parse_controller("threshold:0.85/0.95").unwrap(),
            ControllerSpec::Threshold {
                new_call: 0.85,
                handoff: 0.95
            }
        );
        assert!(parse_controller("nope").is_err());
        assert!(parse_controller("threshold:2.0/0.5").is_err());
        assert!(parse_controller("threshold:0.5").is_err());
    }
}
