//! Golden pinning of the FLC2 lookup tables.
//!
//! `Flc2::compile_lut` tabulates the paper's FLC2 into one refined
//! `(Cv, Cs)` surface per request class; `facs-p-lut` decides every call
//! from those surfaces.  This test pins, per capacity and per class, the
//! patch count, the sample bytes, the bits of the measured `max_error` and
//! an FNV-1a digest over every stored sample block (the base grid and
//! each patch with its base cell and node counts), so a change to how the
//! surfaces are computed cannot move a single stored bit unnoticed.
//!
//! Covered: the refined default at the paper's 40 BU capacity and at 20
//! and 100 BU.  The counter-state terms scale with the capacity and the
//! `Cs` axis spans it, so the three tabulations store the same bits: the
//! snapshot pins that too.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_lut
//! ```

use facs_suite::facs::{Flc2, Flc2Lut};
use facs_suite::fuzzy::Lut2d;
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

/// Digest of every stored sample block of `lut`, with its layout.
fn digest(lut: &Lut2d) -> u64 {
    let mut h = Fnv::new();
    for (cell, (nx, ny), samples) in lut.sample_blocks() {
        match cell {
            Some((ix, iy)) => {
                h.word(ix as u64);
                h.word(iy as u64);
            }
            None => h.word(u64::MAX),
        }
        h.word(nx as u64);
        h.word(ny as u64);
        for s in samples {
            h.word(s.to_bits());
        }
    }
    h.0
}

/// One tabulation as pretty JSON lines, one object per class.
fn describe(name: &str, lut: &Flc2Lut, out: &mut String) {
    let _ = writeln!(out, "  \"{name}\": [");
    let classes: Vec<String> = lut
        .surfaces()
        .map(|(rq, surface)| {
            format!(
                "    {{\"request_bu\": {rq}, \"patch_count\": {}, \"sample_bytes\": {}, \
                 \"max_error_bits\": \"{:016x}\", \"digest\": \"{:016x}\"}}",
                surface.patch_count(),
                surface.sample_bytes(),
                surface.max_error().to_bits(),
                digest(surface)
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
        describe(&format!("refined@{capacity}bu"), &lut, &mut json);
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
