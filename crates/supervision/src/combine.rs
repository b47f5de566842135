//! Combining multi-source supervision over a dataset, task by task.
//!
//! This is the "Combine Supervision" stage of Figure 1: for each task, the
//! (conflicting, incomplete) source votes are flattened into label matrices
//! at the task's granularity, a combiner resolves them, and the resulting
//! probabilistic labels are attached back to records for training.
//!
//! [`combine_all`] is the one driver: it scans a sealed [`ShardedStore`]
//! once for every task — each shard builds its partial label matrices from
//! zero-copy row views in parallel, the partials merge in shard order, and
//! each task's combiner runs once on its merged matrix. An eager per-task
//! traversal of a [`Dataset`] is compiled only under `#[cfg(test)]`, as
//! the reference the store path must match bit for bit.

use crate::label_model::{LabelModel, LabelModelConfig, Patterns};
use crate::majority::majority_vote;
use crate::matrix::LabelMatrix;
use crate::prob::ProbLabel;
use overton_store::{
    par_map, Dataset, LabelView, PayloadKind, RowView, ShardedStore, StoreError, TaskKind,
};
use std::collections::BTreeMap;
use std::fmt;

/// How to resolve conflicting sources. Serializable: a persisted run
/// records its combine method as part of its options.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum CombineMethod {
    /// Unweighted majority vote (baseline).
    MajorityVote,
    /// Generative label model fit by EM (the Overton/Snorkel approach).
    LabelModel(LabelModelConfig),
    /// Trust a single named source, ignoring all others (ablation).
    SingleSource(String),
}

impl Default for CombineMethod {
    fn default() -> Self {
        CombineMethod::LabelModel(LabelModelConfig::default())
    }
}

/// Errors from supervision combination.
#[derive(Debug)]
pub enum CombineError {
    /// The task is not in the dataset's schema.
    UnknownTask(String),
    /// A label mentions a class missing from the task vocabulary.
    UnknownClass {
        /// Task whose vocabulary was violated.
        task: String,
        /// The out-of-vocabulary class name.
        class: String,
    },
    /// Requested source never appears for the task.
    UnknownSource {
        /// Task that was being combined.
        task: String,
        /// The missing source name.
        source: String,
    },
    /// A sharded-store scan failed (corrupt row, I/O).
    Store(StoreError),
}

impl fmt::Display for CombineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombineError::UnknownTask(t) => write!(f, "unknown task '{t}'"),
            CombineError::UnknownClass { task, class } => {
                write!(f, "task '{task}': label '{class}' not in vocabulary")
            }
            CombineError::UnknownSource { task, source } => {
                write!(f, "task '{task}': source '{source}' has no votes")
            }
            CombineError::Store(e) => write!(f, "store scan failed: {e}"),
        }
    }
}

impl std::error::Error for CombineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CombineError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for CombineError {
    fn from(e: StoreError) -> Self {
        CombineError::Store(e)
    }
}

/// Per-source diagnostics from a combination run. Serializable: the `Run`
/// API persists these as the combine stage's artifact.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SourceDiagnostics {
    /// Source name.
    pub name: String,
    /// Estimated accuracy (label model) or `None` for other methods.
    pub estimated_accuracy: Option<f32>,
    /// Fraction of items the source voted on.
    pub coverage: f32,
}

/// The result of combining supervision for one task.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedSupervision {
    /// One entry per dataset record: `None` when the record carries no
    /// supervision for this task.
    pub labels: Vec<Option<ProbLabel>>,
    /// Per-source diagnostics (accuracy estimates feed the monitoring UI).
    pub sources: Vec<SourceDiagnostics>,
}

impl CombinedSupervision {
    /// Number of records with supervision.
    pub fn supervised_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }
}

/// What one task's extraction needs to know, resolved once per scan from
/// the schema and the store's seal-time index (no per-task re-scan).
struct TaskSpec {
    name: String,
    payload: String,
    payload_kind: PayloadKind,
    kind: TaskKind,
    sources: Vec<String>,
}

/// Per-shard partial state for one task: label-matrix fragments plus the
/// bookkeeping that maps matrix items back to global rows. Partials from
/// different shards concatenate in shard order, reproducing exactly the
/// matrices a sequential traversal would build.
enum TaskPartial {
    /// Multiclass-over-singleton and select tasks: one item per voting row.
    Single { matrix: LabelMatrix, items: Vec<u32> },
    /// Multiclass over a sequence payload: one item per (row, token).
    Seq { matrix: LabelMatrix, item_pos: Vec<(u32, u32)>, record_len: Vec<(u32, u32)> },
    /// Bitvector tasks: one binary matrix per bit, items aligned across
    /// bits; `sequence` distinguishes per-token from per-record labels.
    Bits {
        matrices: Vec<LabelMatrix>,
        item_pos: Vec<(u32, u32)>,
        record_len: Vec<(u32, u32)>,
        sequence: bool,
    },
}

impl TaskPartial {
    fn new(spec: &TaskSpec) -> Self {
        let n = spec.sources.len();
        match (&spec.kind, &spec.payload_kind) {
            (TaskKind::Multiclass { .. }, PayloadKind::Singleton) | (TaskKind::Select, _) => {
                TaskPartial::Single { matrix: LabelMatrix::new(n), items: Vec::new() }
            }
            (TaskKind::Multiclass { .. }, PayloadKind::Sequence { .. }) => TaskPartial::Seq {
                matrix: LabelMatrix::new(n),
                item_pos: Vec::new(),
                record_len: Vec::new(),
            },
            (
                TaskKind::Bitvector { labels },
                payload @ (PayloadKind::Singleton | PayloadKind::Sequence { .. }),
            ) => TaskPartial::Bits {
                matrices: (0..labels.len()).map(|_| LabelMatrix::new(n)).collect(),
                item_pos: Vec::new(),
                record_len: Vec::new(),
                sequence: matches!(payload, PayloadKind::Sequence { .. }),
            },
            (kind, payload) => {
                // `Schema::validate` rejects multiclass and bitvector tasks
                // over a set payload, so a sealed store never holds one.
                unreachable!("unsupported task/payload combination: {kind:?} over {payload:?}")
            }
        }
    }

    fn append(&mut self, other: TaskPartial) {
        match (self, other) {
            (
                TaskPartial::Single { matrix, items },
                TaskPartial::Single { matrix: m2, items: i2 },
            ) => {
                matrix.append(&m2);
                items.extend(i2);
            }
            (
                TaskPartial::Seq { matrix, item_pos, record_len },
                TaskPartial::Seq { matrix: m2, item_pos: p2, record_len: l2 },
            ) => {
                matrix.append(&m2);
                item_pos.extend(p2);
                record_len.extend(l2);
            }
            (
                TaskPartial::Bits { matrices, item_pos, record_len, .. },
                TaskPartial::Bits { matrices: m2, item_pos: p2, record_len: l2, .. },
            ) => {
                for (a, b) in matrices.iter_mut().zip(&m2) {
                    a.append(b);
                }
                item_pos.extend(p2);
                record_len.extend(l2);
            }
            _ => unreachable!("partials of one task share a shape"),
        }
    }
}

fn class_index(classes: &[String], name: &str, task: &str) -> Result<u32, CombineError> {
    classes.iter().position(|c| c == name).map(|i| i as u32).ok_or_else(|| {
        CombineError::UnknownClass { task: task.to_string(), class: name.to_string() }
    })
}

/// Resolves each configured source's label for one task, in source order,
/// with a single binary search per source (the per-item extraction below
/// then never touches the row's task table again).
fn resolve_sources<'v, 'a>(
    sources_slice: &'v [(&'a str, LabelView<'a>)],
    sources: &[String],
) -> Vec<Option<&'v LabelView<'a>>> {
    sources
        .iter()
        .map(|source| {
            sources_slice
                .binary_search_by_key(&source.as_str(), |(s, _)| s)
                .ok()
                .map(|i| &sources_slice[i].1)
        })
        .collect()
}

/// The set bits of one bitvector label as a mask over the task's bit
/// vocabulary (bit names outside the vocabulary are ignored, as in the
/// eager reference).
fn bit_mask(bits: &[&str], labels: &[String]) -> u64 {
    let mut mask = 0u64;
    for bit in bits {
        if let Some(b) = labels.iter().position(|l| l == bit) {
            mask |= 1 << b;
        }
    }
    mask
}

/// Extracts one row's votes for one task from a zero-copy view into the
/// task's partial. Wrong granularity is an abstain and unknown classes are
/// errors, exactly as in the test-only eager reference; the row's source
/// labels are resolved once up front instead of per matrix item, and
/// bitvector labels become bit masks so per-(element, bit) votes are mask
/// tests.
fn extract_row(
    spec: &TaskSpec,
    row: u32,
    view: &RowView<'_>,
    partial: &mut TaskPartial,
    votes: &mut Vec<Option<u32>>,
) -> Result<(), CombineError> {
    let task = spec.name.as_str();
    match partial {
        TaskPartial::Single { matrix, items } => match &spec.kind {
            TaskKind::Multiclass { classes } => {
                let Some(sources_slice) = view.task(task) else { return Ok(()) };
                let labels = resolve_sources(sources_slice, &spec.sources);
                votes.clear();
                for label in &labels {
                    votes.push(match label {
                        Some(LabelView::MulticlassOne(c)) => Some(class_index(classes, c, task)?),
                        _ => None,
                    });
                }
                if votes.iter().any(Option::is_some) {
                    matrix.push_item(classes.len() as u32, votes);
                    items.push(row);
                }
            }
            TaskKind::Select => {
                let Some(overton_store::PayloadView::Set(els)) = view.payload(&spec.payload) else {
                    return Ok(());
                };
                if els.is_empty() {
                    return Ok(());
                }
                let Some(sources_slice) = view.task(task) else { return Ok(()) };
                let labels = resolve_sources(sources_slice, &spec.sources);
                votes.clear();
                for label in &labels {
                    votes.push(match label {
                        Some(LabelView::Select(idx)) => Some(*idx as u32),
                        _ => None,
                    });
                }
                if votes.iter().any(Option::is_some) {
                    matrix.push_item(els.len() as u32, votes);
                    items.push(row);
                }
            }
            _ => unreachable!("single-item partial implies multiclass or select"),
        },
        TaskPartial::Seq { matrix, item_pos, record_len } => {
            let TaskKind::Multiclass { classes } = &spec.kind else {
                unreachable!("seq partial implies multiclass")
            };
            let Some(overton_store::PayloadView::Sequence(tokens)) = view.payload(&spec.payload)
            else {
                return Ok(());
            };
            if view.weak_sources(task).next().is_none() {
                return Ok(());
            }
            let sources_slice = view.task(task).expect("weak sources imply the task");
            let labels = resolve_sources(sources_slice, &spec.sources);
            // Per source: the token-aligned class sequence, if that is the
            // granularity the source voted at.
            let seqs: Vec<Option<&Vec<&str>>> = labels
                .iter()
                .map(|label| match label {
                    Some(LabelView::MulticlassSeq(cs)) => Some(cs),
                    _ => None,
                })
                .collect();
            record_len.push((row, tokens.len() as u32));
            for t in 0..tokens.len() {
                votes.clear();
                for seq in &seqs {
                    votes.push(match seq.and_then(|cs| cs.get(t)) {
                        Some(c) => Some(class_index(classes, c, task)?),
                        None => None,
                    });
                }
                matrix.push_item(classes.len() as u32, votes);
                item_pos.push((row, t as u32));
            }
        }
        TaskPartial::Bits { matrices, item_pos, record_len, sequence } => {
            let TaskKind::Bitvector { labels: bit_names } = &spec.kind else {
                unreachable!("bits partial implies bitvector")
            };
            if view.weak_sources(task).next().is_none() {
                return Ok(());
            }
            let elements = if *sequence {
                match view.payload(&spec.payload) {
                    Some(overton_store::PayloadView::Sequence(tokens)) => tokens.len(),
                    _ => return Ok(()),
                }
            } else {
                1
            };
            let sources_slice = view.task(task).expect("weak sources imply the task");
            let resolved = resolve_sources(sources_slice, &spec.sources);
            record_len.push((row, elements as u32));
            if bit_names.len() <= 64 {
                // Fast path: per source, one mask per element (`None` =
                // abstain on the whole record; a too-short sequence
                // abstains past its end).
                let masks: Vec<Option<Vec<u64>>> = resolved
                    .iter()
                    .map(|label| match (label, *sequence) {
                        (Some(LabelView::BitvectorOne(bits)), false) => {
                            Some(vec![bit_mask(bits, bit_names)])
                        }
                        (Some(LabelView::BitvectorSeq(rows)), true) => {
                            Some(rows.iter().map(|bits| bit_mask(bits, bit_names)).collect())
                        }
                        _ => None,
                    })
                    .collect();
                for t in 0..elements {
                    for (b, matrix) in matrices.iter_mut().enumerate() {
                        votes.clear();
                        for mask in &masks {
                            votes.push(
                                mask.as_ref()
                                    .and_then(|rows| rows.get(t))
                                    .map(|m| ((m >> b) & 1) as u32),
                            );
                        }
                        matrix.push_item(2, votes);
                    }
                    item_pos.push((row, t as u32));
                }
            } else {
                // Wide vocabularies (> 64 bits): scan each label's set
                // bits directly, as the eager reference does.
                for t in 0..elements {
                    for (b, matrix) in matrices.iter_mut().enumerate() {
                        let bit = bit_names[b].as_str();
                        votes.clear();
                        for label in &resolved {
                            let bits: Option<&Vec<&str>> = match (label, *sequence) {
                                (Some(LabelView::BitvectorOne(bits)), false) => Some(bits),
                                (Some(LabelView::BitvectorSeq(rows)), true) => rows.get(t),
                                _ => None,
                            };
                            votes.push(bits.map(|bits| u32::from(bits.contains(&bit))));
                        }
                        matrix.push_item(2, votes);
                    }
                    item_pos.push((row, t as u32));
                }
            }
        }
    }
    Ok(())
}

/// Runs the combiner on a task's merged partial and scatters the resulting
/// distributions back to per-row probabilistic labels.
fn finish_task(
    spec: &TaskSpec,
    partial: TaskPartial,
    num_rows: usize,
    method: &CombineMethod,
) -> CombinedSupervision {
    let mut labels = vec![None; num_rows];
    match partial {
        TaskPartial::Single { matrix, items } => {
            let (dists, diags) = run_combiner(&matrix, &spec.sources, method);
            for (dist, row) in dists.into_iter().zip(&items) {
                if let Some(dist) = dist {
                    labels[*row as usize] = Some(ProbLabel::Dist(dist));
                }
            }
            CombinedSupervision { labels, sources: diags }
        }
        TaskPartial::Seq { matrix, item_pos, record_len } => {
            let (dists, diags) = run_combiner(&matrix, &spec.sources, method);
            let mut per_record: BTreeMap<u32, Vec<Vec<f32>>> = BTreeMap::new();
            let mut skipped: std::collections::BTreeSet<u32> = Default::default();
            for (row, len) in &record_len {
                per_record.insert(*row, vec![Vec::new(); *len as usize]);
            }
            for (dist, (row, t)) in dists.into_iter().zip(&item_pos) {
                match dist {
                    Some(dist) => per_record.get_mut(row).expect("registered")[*t as usize] = dist,
                    None => {
                        skipped.insert(*row);
                    }
                }
            }
            for (row, rows) in per_record {
                if !skipped.contains(&row) {
                    labels[row as usize] = Some(ProbLabel::SeqDist(rows));
                }
            }
            CombinedSupervision { labels, sources: diags }
        }
        TaskPartial::Bits { matrices, item_pos, record_len, sequence } => {
            let n_sources = spec.sources.len();
            let mut per_bit_dists: Vec<Vec<Option<Vec<f32>>>> = Vec::with_capacity(matrices.len());
            let mut acc_sums: Vec<(f32, usize)> = vec![(0.0, 0); n_sources];
            let mut coverage: Vec<f32> = vec![0.0; n_sources];
            for matrix in &matrices {
                let (dists, diags) = run_combiner(matrix, &spec.sources, method);
                for (j, d) in diags.iter().enumerate() {
                    if let Some(a) = d.estimated_accuracy {
                        acc_sums[j].0 += a;
                        acc_sums[j].1 += 1;
                    }
                    coverage[j] = d.coverage;
                }
                per_bit_dists.push(dists);
            }
            let diags = spec
                .sources
                .iter()
                .enumerate()
                .map(|(j, n)| SourceDiagnostics {
                    name: n.clone(),
                    estimated_accuracy: (acc_sums[j].1 > 0)
                        .then(|| acc_sums[j].0 / acc_sums[j].1 as f32),
                    coverage: coverage[j],
                })
                .collect();
            let n_bits = matrices.len();
            let mut per_record: BTreeMap<u32, Vec<Vec<f32>>> = BTreeMap::new();
            let mut skipped: std::collections::BTreeSet<u32> = Default::default();
            for (row, len) in &record_len {
                per_record.insert(*row, vec![vec![0.0; n_bits]; *len as usize]);
            }
            for (item, (row, t)) in item_pos.iter().enumerate() {
                for (b, bit_dists) in per_bit_dists.iter().enumerate() {
                    match &bit_dists[item] {
                        Some(dist) => {
                            per_record.get_mut(row).expect("registered")[*t as usize][b] = dist[1]
                        }
                        None => {
                            skipped.insert(*row);
                        }
                    }
                }
            }
            for (row, rows) in per_record {
                if skipped.contains(&row) {
                    continue;
                }
                labels[row as usize] = Some(if sequence {
                    ProbLabel::SeqBits(rows)
                } else {
                    ProbLabel::Bits(rows.into_iter().next().expect("one element"))
                });
            }
            CombinedSupervision { labels, sources: diags }
        }
    }
}

fn task_spec(store: &ShardedStore, task: &str) -> Result<TaskSpec, CombineError> {
    let schema = store.schema();
    let task_def =
        schema.tasks.get(task).ok_or_else(|| CombineError::UnknownTask(task.to_string()))?;
    let payload_kind = schema
        .payloads
        .get(&task_def.payload)
        .map(|p| p.kind.clone())
        .unwrap_or(PayloadKind::Singleton);
    Ok(TaskSpec {
        name: task.to_string(),
        payload: task_def.payload.clone(),
        payload_kind,
        kind: task_def.kind.clone(),
        sources: store.index().sources_for_task(task),
    })
}

/// Scans the store once (shard-parallel, zero-copy) and builds every
/// task's merged partial.
fn scan_partials(
    store: &ShardedStore,
    specs: &[TaskSpec],
) -> Result<Vec<TaskPartial>, CombineError> {
    type ShardOut = Result<Vec<TaskPartial>, CombineError>;
    let per_shard: Vec<ShardOut> = store
        .par_scan(|scan| {
            let run = || -> Result<Vec<TaskPartial>, CombineError> {
                let mut partials: Vec<TaskPartial> = specs.iter().map(TaskPartial::new).collect();
                let mut votes: Vec<Option<u32>> = Vec::new();
                for (row, view) in scan.views() {
                    let view = view?;
                    for (spec, partial) in specs.iter().zip(&mut partials) {
                        extract_row(spec, row as u32, &view, partial, &mut votes)?;
                    }
                }
                Ok(partials)
            };
            Ok(run())
        })
        .map_err(CombineError::Store)?;
    let mut merged: Vec<TaskPartial> = specs.iter().map(TaskPartial::new).collect();
    for shard in per_shard {
        for (m, p) in merged.iter_mut().zip(shard?) {
            m.append(p);
        }
    }
    Ok(merged)
}

/// Combines supervision for **every** schema task in one shard-parallel
/// scan of the store, decoding each row exactly once for all of them.
///
/// Tasks with no weak supervision sources (gold-only or unsupervised)
/// appear in the result with all-`None` labels and empty diagnostics —
/// their combiner never runs. Tasks for which a
/// [`CombineMethod::SingleSource`] source never votes are skipped (left
/// out of the result), matching how the pipeline treats per-task source
/// ablations.
pub fn combine_all(
    store: &ShardedStore,
    method: &CombineMethod,
) -> Result<BTreeMap<String, CombinedSupervision>, CombineError> {
    let mut specs = Vec::new();
    let mut results: BTreeMap<String, CombinedSupervision> = BTreeMap::new();
    for task in store.schema().tasks.keys() {
        let spec = task_spec(store, task)?;
        if spec.sources.is_empty() {
            results.insert(
                task.clone(),
                CombinedSupervision { labels: vec![None; store.len()], sources: Vec::new() },
            );
            continue;
        }
        if let CombineMethod::SingleSource(name) = method {
            if !spec.sources.iter().any(|s| s == name) {
                continue;
            }
        }
        specs.push(spec);
    }
    let partials = scan_partials(store, &specs)?;
    // The per-task combiner runs are independent; fan them out with the
    // same worker budget as the store's shard scans.
    let work: Vec<(&TaskSpec, TaskPartial)> = specs.iter().zip(partials).collect();
    let combined = par_map(store.scan_workers(), work, |(spec, partial)| {
        finish_task(spec, partial, store.len(), method)
    });
    results.extend(specs.iter().map(|s| s.name.clone()).zip(combined));
    Ok(results)
}

/// Runs the chosen combiner over a matrix, returning per-item distributions
/// (`None` = the method produces no label for this item, e.g. a
/// single-source combiner whose source abstained) and per-source
/// diagnostics.
fn run_combiner(
    matrix: &LabelMatrix,
    source_names: &[String],
    method: &CombineMethod,
) -> (Vec<Option<Vec<f32>>>, Vec<SourceDiagnostics>) {
    let coverage: Vec<f32> = (0..matrix.n_sources()).map(|j| matrix.coverage(j)).collect();
    match method {
        CombineMethod::MajorityVote => {
            let dists = majority_vote(matrix).into_iter().map(Some).collect();
            let diags = source_names
                .iter()
                .zip(&coverage)
                .map(|(n, &c)| SourceDiagnostics {
                    name: n.clone(),
                    estimated_accuracy: None,
                    coverage: c,
                })
                .collect();
            (dists, diags)
        }
        CombineMethod::LabelModel(config) => {
            let patterns = Patterns::new(matrix);
            let model = LabelModel::fit_patterns(matrix, &patterns, config);
            let dists = model.predict_patterns(matrix, &patterns).into_iter().map(Some).collect();
            let diags = source_names
                .iter()
                .enumerate()
                .map(|(j, n)| SourceDiagnostics {
                    name: n.clone(),
                    estimated_accuracy: Some(model.accuracies()[j]),
                    coverage: coverage[j],
                })
                .collect();
            (dists, diags)
        }
        CombineMethod::SingleSource(name) => {
            let j = source_names.iter().position(|s| s == name).expect("validated above");
            let dists = (0..matrix.n_items())
                .map(|i| {
                    let k = matrix.cardinality(i) as usize;
                    matrix.vote(i, j).map(|v| {
                        let mut d = vec![0.0; k];
                        d[v as usize] = 1.0;
                        d
                    })
                })
                .collect();
            let diags = source_names
                .iter()
                .zip(&coverage)
                .map(|(n, &c)| SourceDiagnostics {
                    name: n.clone(),
                    estimated_accuracy: None,
                    coverage: c,
                })
                .collect();
            (dists, diags)
        }
    }
}

/// The fraction of supervised training records for a task whose supervision
/// is weak-only (no gold label) — the "Amount of Weak Supervision" column of
/// Figure 3.
pub fn weak_supervision_fraction(dataset: &Dataset, task: &str) -> f32 {
    let mut supervised = 0usize;
    let mut weak_only = 0usize;
    for record in dataset.records() {
        if !record.has_tag(overton_store::TAG_TRAIN) {
            continue;
        }
        let has_weak = record.weak_sources(task).next().is_some();
        let has_gold = record.gold(task).is_some();
        if has_weak || has_gold {
            supervised += 1;
            if !has_gold {
                weak_only += 1;
            }
        }
    }
    if supervised == 0 {
        0.0
    } else {
        weak_only as f32 / supervised as f32
    }
}

/// The eager per-task traversal of a [`Dataset`], the test reference that
/// [`combine_all`] must match: one pass over the records per task,
/// building the same label matrices the store scan builds.
#[cfg(test)]
mod eager {
    use super::{
        class_index, run_combiner, CombineError, CombineMethod, CombinedSupervision,
        SourceDiagnostics,
    };
    use crate::matrix::LabelMatrix;
    use crate::prob::ProbLabel;
    use overton_store::{Dataset, PayloadKind, PayloadValue, Record, TaskKind, TaskLabel};
    use std::collections::BTreeMap;

    /// Combines supervision for `task` across the whole dataset.
    pub(super) fn combine_task(
        dataset: &Dataset,
        task: &str,
        method: &CombineMethod,
    ) -> Result<CombinedSupervision, CombineError> {
        let schema = dataset.schema();
        let task_def =
            schema.tasks.get(task).ok_or_else(|| CombineError::UnknownTask(task.to_string()))?;
        let payload_kind = schema
            .payloads
            .get(&task_def.payload)
            .map(|p| p.kind.clone())
            .unwrap_or(PayloadKind::Singleton);

        let sources = dataset.sources_for_task(task);
        if let CombineMethod::SingleSource(name) = method {
            if !sources.iter().any(|s| s == name) {
                return Err(CombineError::UnknownSource {
                    task: task.to_string(),
                    source: name.clone(),
                });
            }
        }

        match (&task_def.kind, &payload_kind) {
            (TaskKind::Multiclass { classes }, PayloadKind::Singleton) => {
                combine_multiclass_singleton(dataset, task, classes, &sources, method)
            }
            (TaskKind::Multiclass { classes }, PayloadKind::Sequence { .. }) => {
                combine_multiclass_sequence(dataset, task, classes, &sources, method)
            }
            (TaskKind::Bitvector { labels }, PayloadKind::Singleton) => {
                combine_bitvector(dataset, task, labels, &sources, method, false)
            }
            (TaskKind::Bitvector { labels }, PayloadKind::Sequence { .. }) => {
                combine_bitvector(dataset, task, labels, &sources, method, true)
            }
            (TaskKind::Select, _) => {
                combine_select(dataset, task, &task_def.payload, &sources, method)
            }
            (kind, payload) => {
                // `Schema::validate` rejects multiclass and bitvector tasks over
                // a set payload.
                unreachable!("unsupported task/payload combination: {kind:?} over {payload:?}")
            }
        }
    }

    fn combine_multiclass_singleton(
        dataset: &Dataset,
        task: &str,
        classes: &[String],
        sources: &[String],
        method: &CombineMethod,
    ) -> Result<CombinedSupervision, CombineError> {
        let k = classes.len() as u32;
        let mut matrix = LabelMatrix::new(sources.len());
        let mut item_record: Vec<usize> = Vec::new();
        for (ri, record) in dataset.records().iter().enumerate() {
            let votes = collect_votes(record, task, sources, |label| match label {
                TaskLabel::MulticlassOne(c) => Some(class_index(classes, c, task)),
                _ => None,
            });
            let votes = transpose_errors(votes)?;
            if votes.iter().any(Option::is_some) {
                matrix.push_item(k, &votes);
                item_record.push(ri);
            }
        }
        let (dists, diags) = run_combiner(&matrix, sources, method);
        let mut labels = vec![None; dataset.len()];
        for (item, ri) in item_record.iter().enumerate() {
            if let Some(dist) = &dists[item] {
                labels[*ri] = Some(ProbLabel::Dist(dist.clone()));
            }
        }
        Ok(CombinedSupervision { labels, sources: diags })
    }

    fn combine_multiclass_sequence(
        dataset: &Dataset,
        task: &str,
        classes: &[String],
        sources: &[String],
        method: &CombineMethod,
    ) -> Result<CombinedSupervision, CombineError> {
        let k = classes.len() as u32;
        let payload_name = &dataset.schema().tasks[task].payload;
        let mut matrix = LabelMatrix::new(sources.len());
        // (record, token) per item.
        let mut item_pos: Vec<(usize, usize)> = Vec::new();
        let mut record_len: BTreeMap<usize, usize> = BTreeMap::new();
        for (ri, record) in dataset.records().iter().enumerate() {
            let Some(PayloadValue::Sequence(tokens)) = record.payloads.get(payload_name) else {
                continue;
            };
            if record.weak_sources(task).next().is_none() {
                continue;
            }
            record_len.insert(ri, tokens.len());
            for t in 0..tokens.len() {
                let votes = collect_votes(record, task, sources, |label| match label {
                    TaskLabel::MulticlassSeq(cs) => {
                        cs.get(t).map(|c| class_index(classes, c, task))
                    }
                    _ => None,
                });
                let votes = transpose_errors(votes)?;
                matrix.push_item(k, &votes);
                item_pos.push((ri, t));
            }
        }
        let (dists, diags) = run_combiner(&matrix, sources, method);
        let mut per_record: BTreeMap<usize, Vec<Vec<f32>>> = BTreeMap::new();
        let mut skipped: std::collections::BTreeSet<usize> = Default::default();
        for (ri, len) in &record_len {
            per_record.insert(*ri, vec![Vec::new(); *len]);
        }
        for (item, (ri, t)) in item_pos.iter().enumerate() {
            match &dists[item] {
                Some(dist) => per_record.get_mut(ri).expect("record registered")[*t] = dist.clone(),
                // A source labels a whole sequence or nothing; one missing
                // element means the combiner had nothing for this record.
                None => {
                    skipped.insert(*ri);
                }
            }
        }
        let mut labels = vec![None; dataset.len()];
        for (ri, rows) in per_record {
            if !skipped.contains(&ri) {
                labels[ri] = Some(ProbLabel::SeqDist(rows));
            }
        }
        Ok(CombinedSupervision { labels, sources: diags })
    }

    fn combine_bitvector(
        dataset: &Dataset,
        task: &str,
        bit_names: &[String],
        sources: &[String],
        method: &CombineMethod,
        sequence: bool,
    ) -> Result<CombinedSupervision, CombineError> {
        let payload_name = &dataset.schema().tasks[task].payload;
        // One binary matrix per bit; items align across bits.
        let mut matrices: Vec<LabelMatrix> =
            (0..bit_names.len()).map(|_| LabelMatrix::new(sources.len())).collect();
        // item -> (record, element index or 0)
        let mut item_pos: Vec<(usize, usize)> = Vec::new();
        let mut record_len: BTreeMap<usize, usize> = BTreeMap::new();

        for (ri, record) in dataset.records().iter().enumerate() {
            if record.weak_sources(task).next().is_none() {
                continue;
            }
            let elements = if sequence {
                match record.payloads.get(payload_name) {
                    Some(PayloadValue::Sequence(tokens)) => tokens.len(),
                    _ => continue,
                }
            } else {
                1
            };
            record_len.insert(ri, elements);
            for t in 0..elements {
                for (b, bit) in bit_names.iter().enumerate() {
                    let votes = collect_votes(record, task, sources, |label| {
                        let bits: Option<&Vec<String>> = match (label, sequence) {
                            (TaskLabel::BitvectorOne(bits), false) => Some(bits),
                            (TaskLabel::BitvectorSeq(rows), true) => rows.get(t),
                            _ => None,
                        };
                        bits.map(|bits| Ok(u32::from(bits.iter().any(|x| x == bit))))
                    });
                    let votes = transpose_errors(votes)?;
                    matrices[b].push_item(2, &votes);
                }
                item_pos.push((ri, t));
            }
        }

        // Combine each bit independently; diagnostics averaged over bits.
        let mut per_bit_dists: Vec<Vec<Option<Vec<f32>>>> = Vec::with_capacity(bit_names.len());
        let mut acc_sums: Vec<(f32, usize)> = vec![(0.0, 0); sources.len()];
        let mut coverage: Vec<f32> = vec![0.0; sources.len()];
        for matrix in &matrices {
            let (dists, diags) = run_combiner(matrix, sources, method);
            for (j, d) in diags.iter().enumerate() {
                if let Some(a) = d.estimated_accuracy {
                    acc_sums[j].0 += a;
                    acc_sums[j].1 += 1;
                }
                coverage[j] = d.coverage;
            }
            per_bit_dists.push(dists);
        }
        let diags = sources
            .iter()
            .enumerate()
            .map(|(j, n)| SourceDiagnostics {
                name: n.clone(),
                estimated_accuracy: (acc_sums[j].1 > 0)
                    .then(|| acc_sums[j].0 / acc_sums[j].1 as f32),
                coverage: coverage[j],
            })
            .collect();

        let mut per_record: BTreeMap<usize, Vec<Vec<f32>>> = BTreeMap::new();
        let mut skipped: std::collections::BTreeSet<usize> = Default::default();
        for (ri, len) in &record_len {
            per_record.insert(*ri, vec![vec![0.0; bit_names.len()]; *len]);
        }
        for (item, (ri, t)) in item_pos.iter().enumerate() {
            for (b, bit_dists) in per_bit_dists.iter().enumerate() {
                // P(bit = 1) is the posterior mass on class 1.
                match &bit_dists[item] {
                    Some(dist) => per_record.get_mut(ri).expect("registered")[*t][b] = dist[1],
                    None => {
                        skipped.insert(*ri);
                    }
                }
            }
        }
        let mut labels = vec![None; dataset.len()];
        for (ri, rows) in per_record {
            if skipped.contains(&ri) {
                continue;
            }
            labels[ri] = Some(if sequence {
                ProbLabel::SeqBits(rows)
            } else {
                ProbLabel::Bits(rows.into_iter().next().expect("one element"))
            });
        }
        Ok(CombinedSupervision { labels, sources: diags })
    }

    fn combine_select(
        dataset: &Dataset,
        task: &str,
        payload_name: &str,
        sources: &[String],
        method: &CombineMethod,
    ) -> Result<CombinedSupervision, CombineError> {
        let mut matrix = LabelMatrix::new(sources.len());
        let mut item_record: Vec<(usize, usize)> = Vec::new(); // (record, set size)
        for (ri, record) in dataset.records().iter().enumerate() {
            let Some(PayloadValue::Set(items)) = record.payloads.get(payload_name) else {
                continue;
            };
            if items.is_empty() {
                continue;
            }
            let votes = collect_votes(record, task, sources, |label| match label {
                TaskLabel::Select(idx) => Some(Ok(*idx as u32)),
                _ => None,
            });
            let votes = transpose_errors(votes)?;
            if votes.iter().any(Option::is_some) {
                matrix.push_item(items.len() as u32, &votes);
                item_record.push((ri, items.len()));
            }
        }
        let (dists, diags) = run_combiner(&matrix, sources, method);
        let mut labels = vec![None; dataset.len()];
        for (item, (ri, _)) in item_record.iter().enumerate() {
            if let Some(dist) = &dists[item] {
                labels[*ri] = Some(ProbLabel::Dist(dist.clone()));
            }
        }
        Ok(CombinedSupervision { labels, sources: diags })
    }

    /// Extracts one vote per source from a record, using `extract` to map a
    /// label to a class index (None = wrong granularity = abstain).
    fn collect_votes(
        record: &Record,
        task: &str,
        sources: &[String],
        extract: impl Fn(&TaskLabel) -> Option<Result<u32, CombineError>>,
    ) -> Vec<Option<Result<u32, CombineError>>> {
        sources
            .iter()
            .map(|source| record.tasks.get(task).and_then(|m| m.get(source)).and_then(&extract))
            .collect()
    }

    /// Turns per-vote `Option<Result<..>>` into `Result<Vec<Option<..>>>`.
    fn transpose_errors(
        votes: Vec<Option<Result<u32, CombineError>>>,
    ) -> Result<Vec<Option<u32>>, CombineError> {
        votes.into_iter().map(Option::transpose).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::eager::combine_task;
    use super::*;
    use overton_store::{example_schema, PayloadValue, Record, SetElement, TaskLabel};

    fn dataset_with_intent_votes() -> Dataset {
        let mut ds = Dataset::new(example_schema());
        // weak1 is reliable, weak2 is noisy: weak1 says Height, weak2 varies.
        for i in 0..30 {
            let w2 = if i % 3 == 0 { "Age" } else { "Height" };
            let r = Record::new()
                .with_payload("query", PayloadValue::Singleton(format!("q{i}")))
                .with_label("Intent", "weak1", TaskLabel::MulticlassOne("Height".into()))
                .with_label("Intent", "weak2", TaskLabel::MulticlassOne(w2.into()))
                .with_tag("train");
            ds.push(r).unwrap();
        }
        ds
    }

    #[test]
    fn majority_vote_singleton() {
        let ds = dataset_with_intent_votes();
        let combined = combine_task(&ds, "Intent", &CombineMethod::MajorityVote).unwrap();
        assert_eq!(combined.supervised_count(), 30);
        let dist = match combined.labels[1].as_ref().unwrap() {
            ProbLabel::Dist(d) => d,
            other => panic!("expected Dist, got {other:?}"),
        };
        // Height is class 0 in the example schema's Intent classes.
        assert_eq!(dist[0], 1.0);
    }

    #[test]
    fn label_model_singleton_prefers_consistent_source() {
        let ds = dataset_with_intent_votes();
        let combined = combine_task(&ds, "Intent", &CombineMethod::default()).unwrap();
        let weak1 = combined.sources.iter().find(|s| s.name == "weak1").unwrap();
        let weak2 = combined.sources.iter().find(|s| s.name == "weak2").unwrap();
        assert!(weak1.estimated_accuracy.unwrap() > weak2.estimated_accuracy.unwrap());
    }

    #[test]
    fn single_source_method() {
        let ds = dataset_with_intent_votes();
        let combined =
            combine_task(&ds, "Intent", &CombineMethod::SingleSource("weak2".into())).unwrap();
        // Record 0: weak2 voted Age (class 1).
        let dist = match combined.labels[0].as_ref().unwrap() {
            ProbLabel::Dist(d) => d,
            other => panic!("{other:?}"),
        };
        assert_eq!(dist[1], 1.0);
    }

    #[test]
    fn unknown_source_errors() {
        let ds = dataset_with_intent_votes();
        let err = combine_task(&ds, "Intent", &CombineMethod::SingleSource("nope".into()));
        assert!(err.is_err());
    }

    #[test]
    fn unknown_task_errors() {
        let ds = dataset_with_intent_votes();
        assert!(combine_task(&ds, "NotATask", &CombineMethod::MajorityVote).is_err());
    }

    #[test]
    fn records_without_votes_get_none() {
        let mut ds = dataset_with_intent_votes();
        ds.push(Record::new().with_payload("query", PayloadValue::Singleton("unlabeled".into())))
            .unwrap();
        let combined = combine_task(&ds, "Intent", &CombineMethod::MajorityVote).unwrap();
        assert!(combined.labels[30].is_none());
        assert_eq!(combined.supervised_count(), 30);
    }

    #[test]
    fn sequence_task_combination() {
        let mut ds = Dataset::new(example_schema());
        for _ in 0..10 {
            let r = Record::new()
                .with_payload("tokens", PayloadValue::Sequence(vec!["how".into(), "tall".into()]))
                .with_label(
                    "POS",
                    "spacy",
                    TaskLabel::MulticlassSeq(vec!["ADV".into(), "ADJ".into()]),
                )
                .with_label(
                    "POS",
                    "heur",
                    TaskLabel::MulticlassSeq(vec!["ADV".into(), "VERB".into()]),
                )
                .with_tag("train");
            ds.push(r).unwrap();
        }
        let combined = combine_task(&ds, "POS", &CombineMethod::MajorityVote).unwrap();
        let rows = match combined.labels[0].as_ref().unwrap() {
            ProbLabel::SeqDist(rows) => rows,
            other => panic!("{other:?}"),
        };
        assert_eq!(rows.len(), 2);
        // Token 0: both agree on ADV (class 0) -> probability 1.
        assert_eq!(rows[0][0], 1.0);
        // Token 1: split between ADJ (1) and VERB (2).
        assert_eq!(rows[1][1], 0.5);
        assert_eq!(rows[1][2], 0.5);
    }

    #[test]
    fn bitvector_task_combination() {
        let mut ds = Dataset::new(example_schema());
        for _ in 0..10 {
            let r = Record::new()
                .with_payload("tokens", PayloadValue::Sequence(vec!["united".into()]))
                .with_label(
                    "EntityType",
                    "kb1",
                    TaskLabel::BitvectorSeq(vec![vec!["location".into(), "country".into()]]),
                )
                .with_label(
                    "EntityType",
                    "kb2",
                    TaskLabel::BitvectorSeq(vec![vec!["location".into()]]),
                )
                .with_tag("train");
            ds.push(r).unwrap();
        }
        let combined = combine_task(&ds, "EntityType", &CombineMethod::MajorityVote).unwrap();
        let rows = match combined.labels[0].as_ref().unwrap() {
            ProbLabel::SeqBits(rows) => rows,
            other => panic!("{other:?}"),
        };
        // Bits order: ["person", "location", "country", "title", "organization"]
        assert_eq!(rows[0][0], 0.0); // person: both vote 0
        assert_eq!(rows[0][1], 1.0); // location: both vote 1
        assert_eq!(rows[0][2], 0.5); // country: split
    }

    #[test]
    fn select_task_combination() {
        let mut ds = Dataset::new(example_schema());
        for _ in 0..10 {
            let r = Record::new()
                .with_payload("tokens", PayloadValue::Sequence(vec!["a".into(), "b".into()]))
                .with_payload(
                    "entities",
                    PayloadValue::Set(vec![
                        SetElement { id: "E0".into(), span: (0, 1) },
                        SetElement { id: "E1".into(), span: (1, 2) },
                        SetElement { id: "E2".into(), span: (0, 2) },
                    ]),
                )
                .with_label("IntentArg", "w1", TaskLabel::Select(1))
                .with_label("IntentArg", "w2", TaskLabel::Select(1))
                .with_label("IntentArg", "w3", TaskLabel::Select(2))
                .with_tag("train");
            ds.push(r).unwrap();
        }
        let combined = combine_task(&ds, "IntentArg", &CombineMethod::default()).unwrap();
        let dist = match combined.labels[0].as_ref().unwrap() {
            ProbLabel::Dist(d) => d,
            other => panic!("{other:?}"),
        };
        assert_eq!(dist.len(), 3);
        let arg = dist.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(arg, 1);
    }

    /// The store-backed shard-parallel combiner must be bit-for-bit
    /// equivalent to the eager per-task traversal, for every task shape
    /// and combine method.
    fn assert_store_parity(ds: &Dataset, task: &str, method: &CombineMethod) {
        let eager = combine_task(ds, task, method).unwrap();
        for shards in [1, 3] {
            let store = ds.seal_shards(shards).with_scan_workers(2);
            let all = combine_all(&store, method).unwrap();
            assert_eq!(eager, all[task], "combine_all, task {task}, {shards} shards");
        }
    }

    #[test]
    fn store_combine_matches_eager_for_all_kinds() {
        // Singleton multiclass.
        let ds = dataset_with_intent_votes();
        for method in [
            CombineMethod::MajorityVote,
            CombineMethod::default(),
            CombineMethod::SingleSource("weak2".into()),
        ] {
            assert_store_parity(&ds, "Intent", &method);
        }

        // Sequence multiclass + per-token bitvector + select, mixed with
        // unsupervised records.
        let mut ds = Dataset::new(example_schema());
        for i in 0..12 {
            let r = Record::new()
                .with_payload("tokens", PayloadValue::Sequence(vec!["how".into(), "tall".into()]))
                .with_payload(
                    "entities",
                    PayloadValue::Set(vec![
                        SetElement { id: "E0".into(), span: (0, 1) },
                        SetElement { id: "E1".into(), span: (1, 2) },
                    ]),
                )
                .with_label(
                    "POS",
                    "spacy",
                    TaskLabel::MulticlassSeq(vec!["ADV".into(), "ADJ".into()]),
                )
                .with_label(
                    "EntityType",
                    "kb1",
                    TaskLabel::BitvectorSeq(vec![vec!["location".into()], vec![]]),
                )
                .with_label("IntentArg", "w1", TaskLabel::Select(i % 2))
                .with_label("IntentArg", "w2", TaskLabel::Select(0))
                .with_tag("train");
            ds.push(r).unwrap();
        }
        ds.push(Record::new().with_payload("query", PayloadValue::Singleton("bare".into())))
            .unwrap();
        for task in ["POS", "EntityType", "IntentArg"] {
            assert_store_parity(&ds, task, &CombineMethod::MajorityVote);
            assert_store_parity(&ds, task, &CombineMethod::default());
        }
    }

    #[test]
    fn store_combine_matches_eager_for_wide_bitvector() {
        // More than 64 bit labels: the mask fast path cannot apply, and
        // the fallback must still match the eager combiner exactly.
        let labels: Vec<String> = (0..70).map(|i| format!("\"b{i}\"")).collect();
        let json = format!(
            r#"{{
              "payloads": {{
                "q": {{ "type": "singleton" }},
                "toks": {{ "type": "sequence", "max_length": 8 }}
              }},
              "tasks": {{
                "Wide": {{ "payload": "q", "type": "bitvector", "labels": [{0}] }},
                "WideSeq": {{ "payload": "toks", "type": "bitvector", "labels": [{0}] }}
              }}
            }}"#,
            labels.join(", ")
        );
        let schema = overton_store::Schema::from_json(&json).unwrap();
        let mut ds = Dataset::new(schema);
        for i in 0..8usize {
            let r = Record::new()
                .with_payload("q", PayloadValue::Singleton(format!("q{i}")))
                .with_payload("toks", PayloadValue::Sequence(vec!["a".into(), "b".into()]))
                .with_label(
                    "Wide",
                    "s1",
                    TaskLabel::BitvectorOne(vec![format!("b{i}"), "b65".into()]),
                )
                .with_label("Wide", "s2", TaskLabel::BitvectorOne(vec!["b0".into()]))
                .with_label(
                    "WideSeq",
                    "s1",
                    TaskLabel::BitvectorSeq(vec![vec![format!("b{}", 60 + i)], vec!["b69".into()]]),
                )
                .with_tag("train");
            ds.push(r).unwrap();
        }
        assert_store_parity(&ds, "Wide", &CombineMethod::MajorityVote);
        assert_store_parity(&ds, "WideSeq", &CombineMethod::MajorityVote);
    }

    #[test]
    fn store_combine_unknown_task_and_source_error() {
        let ds = dataset_with_intent_votes();
        let store = ds.seal_shards(2);
        // combine_all skips tasks lacking the single source instead of
        // erroring; tasks with no weak sources at all appear as empty
        // placeholders (no combiner ran).
        let all = combine_all(&store, &CombineMethod::SingleSource("nope".into())).unwrap();
        assert!(!all.contains_key("Intent"));
        assert!(all.values().all(|c| c.sources.is_empty() && c.supervised_count() == 0));
    }

    #[test]
    fn gold_only_tasks_get_empty_placeholder() {
        // A task supervised only by gold: present in combine_all's result
        // with all-None labels and no diagnostics.
        let mut ds = Dataset::new(example_schema());
        for i in 0..5 {
            ds.push(
                Record::new()
                    .with_payload("query", PayloadValue::Singleton(format!("q{i}")))
                    .with_label("Intent", "gold", TaskLabel::MulticlassOne("Height".into()))
                    .with_tag("train"),
            )
            .unwrap();
        }
        let store = ds.seal_shards(2);
        let all = combine_all(&store, &CombineMethod::default()).unwrap();
        let intent = &all["Intent"];
        assert_eq!(intent.supervised_count(), 0);
        assert!(intent.sources.is_empty());
        assert_eq!(intent.labels.len(), 5);
    }

    #[test]
    fn weak_fraction_counts_gold() {
        let mut ds = dataset_with_intent_votes();
        // Add 10 train records that ALSO carry gold labels.
        for i in 0..10 {
            let r = Record::new()
                .with_payload("query", PayloadValue::Singleton(format!("g{i}")))
                .with_label("Intent", "gold", TaskLabel::MulticlassOne("Height".into()))
                .with_label("Intent", "weak1", TaskLabel::MulticlassOne("Height".into()))
                .with_tag("train");
            ds.push(r).unwrap();
        }
        let frac = weak_supervision_fraction(&ds, "Intent");
        assert!((frac - 0.75).abs() < 1e-6, "fraction {frac}");
    }
}
