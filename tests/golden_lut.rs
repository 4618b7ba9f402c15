//! Golden pinning of the FLC2 lookup tables.
//!
//! `Flc2::compile_lut` tabulates the paper's FLC2 into one line along the
//! correction value per request class and reachable counter state;
//! `facs-p-lut` decides every call from those lines, or from the compiled
//! engine near the threshold.  This test pins, per capacity and per class,
//! the line count, the sample bytes, the bits of the decision band and an
//! FNV-1a digest over every line (its counter state's bits, then its
//! samples' bits), so a change to how the lines are computed cannot move a
//! single stored bit unnoticed.
//!
//! Covered: the paper's 40 BU capacity and 20 and 100 BU.  The reachable
//! counter states grow with the capacity, so each has its own lines.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_lut
//! ```

use facs_suite::facs::{Flc2, Flc2Lut, LUT_DECISION_BAND};
use std::fmt::Write as _;
use std::path::PathBuf;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One tabulation as pretty JSON lines, one object per class.
fn describe(name: &str, lut: &Flc2Lut, out: &mut String) {
    let _ = writeln!(out, "  \"{name}\": [");
    let classes: Vec<String> = lut
        .tabulated_classes()
        .into_iter()
        .map(|class| {
            let mut h = Fnv::new();
            let (mut lines, mut samples) = (0, 0);
            for (_, cs, line) in lut.lines().filter(|&(rq, _, _)| rq == class) {
                lines += 1;
                samples += line.len();
                h.word(cs.to_bits());
                for s in line {
                    h.word(u64::from(s.to_bits()));
                }
            }
            format!(
                "    {{\"request_bu\": {class}, \"line_count\": {lines}, \"sample_bytes\": {}, \
                 \"band_bits\": \"{:016x}\", \"digest\": \"{:016x}\"}}",
                samples * std::mem::size_of::<f32>(),
                LUT_DECISION_BAND.to_bits(),
                h.0
            )
        })
        .collect();
    let _ = writeln!(out, "{}", classes.join(",\n"));
    out.push_str("  ]");
}

#[test]
fn flc2_luts_match_golden() {
    let mut json = String::from("{\n");
    for (i, capacity) in [40.0, 20.0, 100.0].into_iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let flc2 = Flc2::with_capacity(capacity).expect("paper parameters are valid");
        let lut = flc2.compile_lut().expect("paper parameters tabulate");
        describe(&format!("lines@{capacity}bu"), &lut, &mut json);
    }
    json.push_str("\n}");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lut__flc2.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, format!("{json}\n")).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected.trim_end(),
        json,
        "FLC2 tables drifted from their golden snapshot {}; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}
