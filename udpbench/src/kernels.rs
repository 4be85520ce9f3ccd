//! Kernel set-up: translate → assemble → verify → store build, each a
//! public call into its own crate, each in its own span.

use crate::trace::Tracer;
use std::path::Path;
use std::sync::Arc;
use udp_asm::{LayoutOptions, ProgramBuilder};
use udp_isa::NUM_BANKS;
use udp_sim::{ExecBackend, ReferenceFallback, UdpRunOptions};
use udp_store::{Artifact, ArtifactStore, LoadOutcome};

/// A kernel ready to run: the store artifact (verified image with its
/// certificate, predecoded table, bank split, source and layout).
#[derive(Clone)]
pub struct Kernel {
    pub name: String,
    pub artifact: Artifact,
    /// The verifier bounded its cycles and output (a complete certificate).
    pub certified: bool,
}

impl Kernel {
    /// Run options for this kernel. Callers name the backend, so
    /// `UDP_SIM_BACKEND` cannot change what is measured.
    pub fn opts(&self, parallel: bool, backend: ExecBackend) -> UdpRunOptions {
        UdpRunOptions {
            banks_per_lane: self.artifact.banks_per_lane,
            parallel,
            backend,
            ..UdpRunOptions::default()
        }
    }
}

/// Opens (creating) the artifact store at `dir`.
pub fn open_store(tr: &mut Tracer, req: u64, dir: &Path) -> Result<ArtifactStore, String> {
    tr.span("store.open", req, |_| ArtifactStore::open(dir))
        .map_err(|e| format!("store open {}: {e}", dir.display()))
}

/// Builds every kernel `translate` yields into `store`, which must be
/// empty: each kernel is assembled into the smallest bank window that
/// holds it, verified (certified when the verifier can bound it), and
/// built into the store.
pub fn prepare(
    tr: &mut Tracer,
    req: u64,
    translate: impl FnOnce() -> Vec<(String, ProgramBuilder)>,
    store: &ArtifactStore,
) -> Result<Vec<Kernel>, String> {
    let builders = tr.span("compilers.translate", req, |_| translate());
    let mut kernels = Vec::with_capacity(builders.len());
    for (name, pb) in builders {
        let (image, layout) = tr
            .span("asm.assemble", req, |_| assemble_smallest(&pb))
            .ok_or_else(|| format!("{name}: does not assemble into {NUM_BANKS} banks"))?;
        let source = tr.span("asm.emit", req, |_| udp_asm::emit_asm(&pb));
        let banks = image.stats.span_words.div_ceil(udp_isa::BANK_WORDS).max(1);
        let report = tr.span("verify.verify", req, |_| {
            udp_verify::verify_image(&image, &udp_verify::VerifyOptions::with_banks(banks))
        });
        if !report.is_clean() {
            return Err(format!("{name}: verification failed: {report}"));
        }
        let artifact = tr
            .span("store.build", req, |_| store.get_or_build(&source, &layout))
            .map_err(|e| format!("{name}: store build: {e}"))?;
        if artifact.outcome != LoadOutcome::Built {
            return Err(format!(
                "{name}: expected a fresh build, store says {}",
                artifact.outcome.name()
            ));
        }
        kernels.push(Kernel {
            name,
            certified: report.cert.as_ref().is_some_and(|c| c.is_complete()),
            artifact,
        });
    }
    Ok(kernels)
}

/// Warm reload of already-built kernels from a reopened store: every
/// load must be an intact hit.
pub fn reload(
    tr: &mut Tracer,
    req: u64,
    store: &ArtifactStore,
    kernels: &[Kernel],
) -> Result<Vec<Kernel>, String> {
    kernels
        .iter()
        .map(|k| {
            let a = &k.artifact;
            let artifact = tr
                .span("store.load", req, |_| {
                    store.get_or_build(&a.source, &a.layout)
                })
                .map_err(|e| format!("{}: store load: {e}", k.name))?;
            if artifact.outcome != LoadOutcome::Hit {
                return Err(format!(
                    "{}: expected a store hit, got {}",
                    k.name,
                    artifact.outcome.name()
                ));
            }
            Ok(Kernel {
                artifact,
                ..k.clone()
            })
        })
        .collect()
}

fn assemble_smallest(pb: &ProgramBuilder) -> Option<(udp_asm::ProgramImage, LayoutOptions)> {
    let mut banks = 1;
    loop {
        let layout = LayoutOptions::with_banks(banks);
        match pb.assemble(&layout) {
            Ok(img) => return Some((img, layout)),
            Err(_) if banks < NUM_BANKS => banks *= 2,
            Err(_) => return None,
        }
    }
}

/// The csv kernel's byte-identical software reference, the supervisor's
/// fallback rung (the same one the serve runtime's built-in kernel uses).
pub fn csv_fallback() -> Arc<dyn ReferenceFallback> {
    Arc::new(udp_codecs::fallback::CsvFramingFallback {
        delimiter: b',',
        quote: b'"',
        field_sep: udp_compilers::FIELD_SEP,
        record_sep: udp_compilers::RECORD_SEP,
    })
}
