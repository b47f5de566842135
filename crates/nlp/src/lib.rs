//! # overton-nlp
//!
//! The synthetic production workload: a tokenizer, vocabularies, a
//! knowledge base with deliberately ambiguous aliases, a template-based
//! factoid query generator with gold labels for all four schema tasks, a
//! weak-source simulator with controlled accuracy/coverage, a
//! pretraining corpus generator, and a seeded hostile-wire generator
//! ([`hostile_corpus`]) for fuzzing the socket tier.
//!
//! This crate substitutes for the paper's proprietary query logs: the
//! evaluation only depends on task *shapes* (singleton / sequence / set),
//! supervision *quality knobs* and slice structure, all of which are
//! controllable here.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod corpus;
mod hostile;
mod kb;
mod queries;
mod tokenizer;
mod traffic;
mod vocab;
mod workload;

pub use corpus::pretraining_corpus;
pub use hostile::{
    corpus as hostile_corpus, payload as hostile_payload, HostilePayload, HOSTILE_FAMILIES,
};
pub use kb::{Entity, KnowledgeBase, ENTITY_TYPES};
pub use queries::{
    required_types, template_catalog, Candidate, GeneratedQuery, QueryGenerator, INTENTS, POS_TAGS,
    SLICE_COMPLEX_DISAMBIGUATION, SLICE_NUTRITION, VAGUE_INTENTS, VAGUE_TEMPLATE_OFFSET,
};
pub use tokenizer::{detokenize, tokenize};
pub use traffic::{DriftConfig, DriftingTrafficStream, TrafficConfig, TrafficEvent, TrafficStream};
pub use vocab::{Vocab, MASK, PAD, UNK};
pub use workload::{
    generate_workload, generate_workload_sealed, generate_workload_with_kb, query_record,
    workload_schema, write_two_file_workload, SourceSpec, WorkloadConfig,
};
