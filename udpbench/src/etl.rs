//! `etl-batch`: the Fig 1 compressed-CSV ingest on the device, with a
//! Huffman column-compression stage. One request is 64 snappy-compressed
//! CSV blocks; three data-parallel waves decompress them, parse the
//! CSV, and Huffman-encode the parsed fields.

use crate::kernels::Kernel;
use crate::mix;
use crate::trace::Tracer;
use udp_codecs::HuffmanTree;
use udp_compilers::csv::baseline_framing;
use udp_sim::engine::Staging;
use udp_sim::{ExecBackend, SimError, Udp, UdpRunReport};

pub const BLOCKS: usize = 64;
pub const BLOCK_BYTES: usize = 8 * 1024;
/// Distinct request inputs; requests cycle through them.
pub const SETS: usize = 4;

pub const STAGES: [&str; 3] = [
    "sim.stage.snappy_decompress",
    "sim.stage.csv_parse",
    "sim.stage.huffman_encode",
];

/// One request's input: the compressed blocks the device receives.
pub struct RequestInput {
    pub compressed: Vec<Vec<u8>>,
    pub bytes: u64,
}

pub struct Inputs {
    pub sets: Vec<RequestInput>,
    /// Per set, the expected output of each stage, from the software
    /// codecs: raw blocks, `baseline_framing`, `HuffmanTree::encode`.
    pub expect: Vec<[Vec<Vec<u8>>; 3]>,
    /// Built from the parsed output of every block, so every symbol
    /// the encode stage meets has a code.
    pub tree: HuffmanTree,
}

/// Generates `sets` request inputs of `blocks` blocks from `seed`.
pub fn generate(seed: u64, sets: usize, blocks: usize) -> Inputs {
    let mut raw_sets = Vec::with_capacity(sets);
    for s in 0..sets {
        let raw: Vec<Vec<u8>> = (0..blocks)
            .map(|b| udp_workloads::crimes_csv(BLOCK_BYTES, mix(seed, 1, (s * blocks + b) as u64)))
            .collect();
        raw_sets.push(raw);
    }
    let parsed: Vec<Vec<Vec<u8>>> = raw_sets
        .iter()
        .map(|raw| raw.iter().map(|b| baseline_framing(b)).collect())
        .collect();
    let all: Vec<u8> = parsed.iter().flatten().flatten().copied().collect();
    let tree = HuffmanTree::from_data(&all);
    let mut out_sets = Vec::with_capacity(sets);
    let mut expect = Vec::with_capacity(sets);
    for (raw, parsed) in raw_sets.into_iter().zip(parsed) {
        let compressed: Vec<Vec<u8>> = raw.iter().map(|b| udp_codecs::snappy_compress(b)).collect();
        let bytes = compressed.iter().map(|c| c.len() as u64).sum();
        let encoded = parsed.iter().map(|p| tree.encode(p).0).collect();
        out_sets.push(RequestInput { compressed, bytes });
        expect.push([raw, parsed, encoded]);
    }
    Inputs {
        sets: out_sets,
        expect,
        tree,
    }
}

/// The three kernels, in stage order.
pub fn translate(tree: &HuffmanTree) -> Vec<(String, udp_asm::ProgramBuilder)> {
    vec![
        (
            "snappy-decomp".into(),
            udp_compilers::snappy::snappy_decompress_to_udp(),
        ),
        ("csv".into(), udp_compilers::csv::csv_to_udp()),
        (
            "huffman-encode".into(),
            udp_compilers::huffman::huffman_encode_to_udp(tree),
        ),
    ]
}

/// One request: a fresh device, then one wave per stage, each wave fed
/// the previous wave's outputs.
pub fn request(
    tr: &mut Tracer,
    req: u64,
    kernels: &[Kernel],
    input: &RequestInput,
    parallel: bool,
    backend: ExecBackend,
) -> Result<Vec<UdpRunReport>, SimError> {
    let mut udp = tr.span("sim.device_new", req, |_| Udp::new());
    let mut reports: Vec<UdpRunReport> = Vec::with_capacity(kernels.len());
    for (stage, k) in kernels.iter().enumerate() {
        let inputs: Vec<&[u8]> = match reports.last() {
            None => input.compressed.iter().map(Vec::as_slice).collect(),
            Some(prev) => prev.lanes.iter().map(|l| l.output.as_slice()).collect(),
        };
        let opts = k.opts(parallel, backend);
        let rep = tr.span(STAGES[stage], req, |_| {
            udp.try_run_data_parallel(&k.artifact.image, &inputs, &Staging::default(), &opts)
        })?;
        reports.push(rep);
    }
    Ok(reports)
}

/// The oracle run: the interpreter, sequential. Its outputs must match
/// the software codecs; measured requests must then match it exactly.
pub fn reference(kernels: &[Kernel], inputs: &Inputs) -> Result<Vec<Vec<UdpRunReport>>, String> {
    let mut tr = Tracer::new(false);
    let mut refs = Vec::with_capacity(inputs.sets.len());
    for (set, expect) in inputs.sets.iter().zip(&inputs.expect) {
        let reports = request(&mut tr, 0, kernels, set, false, ExecBackend::Interpreter)
            .map_err(|e| format!("reference run failed: {e}"))?;
        for (stage, (rep, want)) in reports.iter().zip(expect).enumerate() {
            let got: Vec<&[u8]> = rep.lanes.iter().map(|l| l.output.as_slice()).collect();
            let want: Vec<&[u8]> = want.iter().map(Vec::as_slice).collect();
            if got != want {
                return Err(format!(
                    "{} output differs from the software codec",
                    STAGES[stage]
                ));
            }
        }
        refs.push(reports);
    }
    Ok(refs)
}
