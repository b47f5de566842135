//! Template-based factoid query generation with gold labels.
//!
//! Mirrors the paper's running example: each query carries tokens, a query
//! string, a candidate entity set with (possibly overlapping) spans, and
//! gold labels for all four tasks (`Intent`, `POS`, `EntityType`,
//! `IntentArg`). Disambiguation is *by intent*: "how tall is washington"
//! selects the person, "what is the capital of washington" the state.

use crate::kb::KnowledgeBase;
use rand::Rng;

/// Intent classes of the workload.
pub const INTENTS: [&str; 7] =
    ["Height", "Age", "Capital", "Population", "Spouse", "President", "Calories"];

/// POS tag classes of the workload.
pub const POS_TAGS: [&str; 8] = ["ADV", "ADJ", "VERB", "NOUN", "PROPN", "DET", "ADP", "PRON"];

/// Entity types an intent's argument must carry, in preference order.
pub fn required_types(intent: &str) -> &'static [&'static str] {
    match intent {
        "Height" | "Age" | "Spouse" => &["person"],
        "Capital" => &["country", "state"],
        "Population" => &["country", "city", "state"],
        "President" => &["country"],
        "Calories" => &["food"],
        other => panic!("unknown intent '{other}'"),
    }
}

/// The name of the slice holding non-default-sense disambiguations.
pub const SLICE_COMPLEX_DISAMBIGUATION: &str = "complex-disambiguation";

/// Per-(alias, intent) editorial ground truth. Real products resolve
/// ambiguous mentions by editorial decision, entity popularity and user
/// behaviour — NOT by a global type rule. Because similar contexts map to
/// different senses per alias ("population of georgia" means the state,
/// "population of mexico" the country), no function of (intent, type-set)
/// explains these; the model must learn entity-specific behaviour from the
/// few slice examples. This is what makes the complex-disambiguation slice
/// genuinely hard (paper §2.2).
pub(crate) const EDITORIAL_GOLD: &[(&str, &str, &str)] = &[
    ("washington", "Population", "washington_state"),
    ("georgia", "Population", "georgia_state"),
    ("georgia", "Capital", "georgia_state"),
    ("lincoln", "Population", "lincoln_city"),
    ("apple", "Calories", "apple_food"),
];
/// The name of the slice holding nutrition queries.
pub const SLICE_NUTRITION: &str = "nutrition";

struct Template {
    intent: &'static str,
    /// `(word, pos)` pairs; a `None` word is the entity slot.
    parts: &'static [(Option<&'static str>, &'static str)],
}

const SLOT: (Option<&'static str>, &str) = (None, "PROPN");

const TEMPLATES: &[Template] = &[
    Template {
        intent: "Height",
        parts: &[(Some("how"), "ADV"), (Some("tall"), "ADJ"), (Some("is"), "VERB"), SLOT],
    },
    Template {
        intent: "Height",
        parts: &[
            (Some("what"), "PRON"),
            (Some("is"), "VERB"),
            (Some("the"), "DET"),
            (Some("height"), "NOUN"),
            (Some("of"), "ADP"),
            SLOT,
        ],
    },
    Template {
        intent: "Age",
        parts: &[(Some("how"), "ADV"), (Some("old"), "ADJ"), (Some("is"), "VERB"), SLOT],
    },
    Template {
        intent: "Age",
        parts: &[
            (Some("what"), "PRON"),
            (Some("is"), "VERB"),
            (Some("the"), "DET"),
            (Some("age"), "NOUN"),
            (Some("of"), "ADP"),
            SLOT,
        ],
    },
    Template {
        intent: "Capital",
        parts: &[
            (Some("what"), "PRON"),
            (Some("is"), "VERB"),
            (Some("the"), "DET"),
            (Some("capital"), "NOUN"),
            (Some("of"), "ADP"),
            SLOT,
        ],
    },
    Template {
        intent: "Population",
        parts: &[
            (Some("what"), "PRON"),
            (Some("is"), "VERB"),
            (Some("the"), "DET"),
            (Some("population"), "NOUN"),
            (Some("of"), "ADP"),
            SLOT,
        ],
    },
    Template {
        intent: "Population",
        parts: &[
            (Some("how"), "ADV"),
            (Some("many"), "ADJ"),
            (Some("people"), "NOUN"),
            (Some("live"), "VERB"),
            (Some("in"), "ADP"),
            SLOT,
        ],
    },
    Template {
        intent: "Spouse",
        parts: &[
            (Some("who"), "PRON"),
            (Some("is"), "VERB"),
            SLOT,
            (Some("married"), "VERB"),
            (Some("to"), "ADP"),
        ],
    },
    Template {
        intent: "Spouse",
        parts: &[
            (Some("who"), "PRON"),
            (Some("is"), "VERB"),
            (Some("the"), "DET"),
            (Some("spouse"), "NOUN"),
            (Some("of"), "ADP"),
            SLOT,
        ],
    },
    Template {
        intent: "President",
        parts: &[
            (Some("who"), "PRON"),
            (Some("is"), "VERB"),
            (Some("the"), "DET"),
            (Some("president"), "NOUN"),
            (Some("of"), "ADP"),
            SLOT,
        ],
    },
    Template {
        intent: "Calories",
        parts: &[
            (Some("how"), "ADV"),
            (Some("many"), "ADJ"),
            (Some("calories"), "NOUN"),
            (Some("in"), "ADP"),
            SLOT,
        ],
    },
    Template {
        intent: "Calories",
        parts: &[
            (Some("how"), "ADV"),
            (Some("many"), "ADJ"),
            (Some("calories"), "NOUN"),
            (Some("are"), "VERB"),
            (Some("in"), "ADP"),
            SLOT,
        ],
    },
];

/// Templates whose text does NOT determine the intent: real production
/// traffic contains queries whose label is irreducibly uncertain, which is
/// why even the paper's best systems have residual error. Gold intent for
/// these is drawn uniformly from the person intents.
const VAGUE_TEMPLATES: &[&[(Option<&str>, &str)]] = &[
    &[(Some("tell"), "VERB"), (Some("me"), "PRON"), (Some("about"), "ADP"), (None, "PROPN")],
    &[(Some("what"), "PRON"), (Some("about"), "ADP"), (None, "PROPN")],
    &[
        (Some("give"), "VERB"),
        (Some("me"), "PRON"),
        (Some("facts"), "NOUN"),
        (Some("about"), "ADP"),
        (None, "PROPN"),
    ],
];

/// Intents a vague query may carry.
pub const VAGUE_INTENTS: [&str; 3] = ["Height", "Age", "Spouse"];

/// Template ids at or above this offset are vague templates.
pub const VAGUE_TEMPLATE_OFFSET: usize = 100;

/// Every template id with the intent its queries carry (`None` for vague
/// templates, whose gold intent is sampled per query). Used by the
/// deterministic labeling-function simulator.
pub fn template_catalog() -> Vec<(usize, Option<&'static str>)> {
    let mut out: Vec<(usize, Option<&'static str>)> =
        TEMPLATES.iter().enumerate().map(|(i, t)| (i, Some(t.intent))).collect();
    for i in 0..VAGUE_TEMPLATES.len() {
        out.push((VAGUE_TEMPLATE_OFFSET + i, None));
    }
    out
}

/// A candidate entity mention: KB entity index plus the half-open token
/// span it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Index into the knowledge base.
    pub entity: usize,
    /// Half-open token span.
    pub span: (usize, usize),
}

/// A fully-labeled synthetic query.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// Query tokens (lowercase).
    pub tokens: Vec<String>,
    /// Gold intent (one of [`INTENTS`]).
    pub intent: &'static str,
    /// Gold POS tag per token.
    pub pos: Vec<&'static str>,
    /// Gold entity-type bits per token (types of the gold argument on its
    /// span, empty elsewhere).
    pub token_types: Vec<Vec<&'static str>>,
    /// Candidate entities (default sense first, sub-span distractors after).
    pub candidates: Vec<Candidate>,
    /// Index of the correct candidate in `candidates`.
    pub gold_arg: usize,
    /// Slice names this query belongs to.
    pub slices: Vec<&'static str>,
    /// Stable id of the template that produced the query (vague templates
    /// are offset by [`VAGUE_TEMPLATE_OFFSET`]). Deterministic labeling
    /// functions key their behaviour on this: a keyword heuristic is a
    /// fixed function of the text, so it is consistently right or wrong on
    /// ALL queries of a template.
    pub template_id: usize,
}

impl GeneratedQuery {
    /// The query as display text.
    pub fn text(&self) -> String {
        self.tokens.join(" ")
    }

    /// The surface form of the entity mention (the full-span alias).
    pub fn mention_text(&self) -> String {
        let (lo, hi) = self.candidates[0].span;
        self.tokens[lo..hi].join(" ")
    }
}

/// Generates labeled queries over a knowledge base.
pub struct QueryGenerator<'a> {
    kb: &'a KnowledgeBase,
    /// `(alias, entity, intent)` triples whose correct reading is a
    /// non-default sense — the "complex disambiguation" pool.
    ambiguous_pool: Vec<(String, usize, &'static str)>,
}

impl<'a> QueryGenerator<'a> {
    /// Prepares a generator (precomputes the ambiguous pool).
    pub fn new(kb: &'a KnowledgeBase) -> Self {
        let mut ambiguous_pool = Vec::new();
        for alias in kb.ambiguous_aliases() {
            let senses = kb.senses(alias);
            for intent in INTENTS {
                let types = required_types(intent);
                // Editorial decisions first, then the first type-compatible
                // sense (mirrors `build_from_parts`).
                let editorial = EDITORIAL_GOLD
                    .iter()
                    .find(|(a, i, _)| *a == alias && *i == intent)
                    .and_then(|(_, _, id)| senses.iter().position(|&e| kb.entity(e).id == *id));
                let gold = editorial.or_else(|| {
                    senses.iter().position(|&e| types.iter().any(|t| kb.entity(e).has_type(t)))
                });
                if let Some(pos) = gold {
                    if pos > 0 {
                        ambiguous_pool.push((alias.to_string(), senses[pos], intent));
                    }
                }
            }
        }
        Self { kb, ambiguous_pool }
    }

    /// Number of distinct (alias, intent) ambiguities available.
    pub fn ambiguous_pool_size(&self) -> usize {
        self.ambiguous_pool.len()
    }

    /// Generates one query. With `force_ambiguous`, draws from the
    /// complex-disambiguation pool (gold is a non-default sense).
    pub fn generate(&self, rng: &mut impl Rng, force_ambiguous: bool) -> GeneratedQuery {
        if force_ambiguous && !self.ambiguous_pool.is_empty() {
            let (alias, entity, intent) =
                &self.ambiguous_pool[rng.gen_range(0..self.ambiguous_pool.len())];
            return self.build(intent, *entity, alias, rng);
        }
        // Regular draw: intent, then an entity of a required type, then one
        // of its aliases.
        loop {
            let intent = INTENTS[rng.gen_range(0..INTENTS.len())];
            let types = required_types(intent);
            let pool: Vec<usize> = types.iter().flat_map(|t| self.kb.with_type(t)).collect();
            if pool.is_empty() {
                continue;
            }
            let entity = pool[rng.gen_range(0..pool.len())];
            let aliases = &self.kb.entity(entity).aliases;
            let alias = &aliases[rng.gen_range(0..aliases.len())];
            return self.build(intent, entity, alias, rng);
        }
    }

    /// Generates a *vague* query: the text does not determine the intent,
    /// so the gold intent is sampled. These create the irreducible error
    /// floor every production system lives with.
    pub fn generate_vague(&self, rng: &mut impl Rng) -> GeneratedQuery {
        let intent = VAGUE_INTENTS[rng.gen_range(0..VAGUE_INTENTS.len())];
        // Topic must satisfy the sampled intent (a person).
        let pool = self.kb.with_type("person");
        let entity = pool[rng.gen_range(0..pool.len())];
        let aliases = &self.kb.entity(entity).aliases;
        let alias = aliases[rng.gen_range(0..aliases.len())].clone();
        let which = rng.gen_range(0..VAGUE_TEMPLATES.len());
        self.build_from_parts(intent, VAGUE_TEMPLATES[which], &alias, VAGUE_TEMPLATE_OFFSET + which)
    }

    fn build(
        &self,
        intent: &'static str,
        _target_entity: usize,
        alias: &str,
        rng: &mut impl Rng,
    ) -> GeneratedQuery {
        let ids: Vec<usize> = TEMPLATES
            .iter()
            .enumerate()
            .filter(|(_, t)| t.intent == intent)
            .map(|(i, _)| i)
            .collect();
        let template_id = ids[rng.gen_range(0..ids.len())];
        self.build_from_parts(intent, TEMPLATES[template_id].parts, alias, template_id)
    }

    fn build_from_parts(
        &self,
        intent: &'static str,
        parts: &[(Option<&'static str>, &'static str)],
        alias: &str,
        template_id: usize,
    ) -> GeneratedQuery {
        let alias_tokens: Vec<String> = alias.split(' ').map(str::to_string).collect();
        let mut tokens = Vec::new();
        let mut pos: Vec<&'static str> = Vec::new();
        let mut mention_span = (0usize, 0usize);
        for (word, tag) in parts {
            match word {
                Some(w) => {
                    tokens.push((*w).to_string());
                    pos.push(tag);
                }
                None => {
                    mention_span = (tokens.len(), tokens.len() + alias_tokens.len());
                    for t in &alias_tokens {
                        tokens.push(t.clone());
                        pos.push("PROPN"); // refined below for foods
                    }
                }
            }
        }

        // Candidates: full-span senses first (default sense first), then
        // sub-span distractors.
        let mut candidates: Vec<Candidate> = self
            .kb
            .senses(alias)
            .into_iter()
            .map(|e| Candidate { entity: e, span: mention_span })
            .collect();
        let (lo, hi) = mention_span;
        let width = hi - lo;
        for sub_lo in lo..hi {
            for sub_hi in (sub_lo + 1)..=hi {
                if sub_hi - sub_lo == width {
                    continue; // full span already handled
                }
                let sub_alias = tokens[sub_lo..sub_hi].join(" ");
                for e in self.kb.senses(&sub_alias) {
                    let cand = Candidate { entity: e, span: (sub_lo, sub_hi) };
                    if !candidates.contains(&cand) {
                        candidates.push(cand);
                    }
                }
            }
        }

        let types = required_types(intent);
        let matches_intent =
            |c: &Candidate| types.iter().any(|t| self.kb.entity(c.entity).has_type(t));
        // Editorial decisions override the generic first-compatible rule
        // on specific (alias, intent) pairs — see [`EDITORIAL_GOLD`].
        let editorial =
            EDITORIAL_GOLD.iter().find(|(a, i, _)| *a == alias && *i == intent).and_then(
                |(_, _, id)| candidates.iter().position(|c| self.kb.entity(c.entity).id == *id),
            );
        let gold_arg = editorial
            .or_else(|| candidates.iter().position(matches_intent))
            .expect("generator always produces a type-compatible candidate");

        let gold_entity = self.kb.entity(candidates[gold_arg].entity);
        let gold_span = candidates[gold_arg].span;
        let mut token_types: Vec<Vec<&'static str>> = vec![Vec::new(); tokens.len()];
        for tt in token_types.iter_mut().take(gold_span.1).skip(gold_span.0) {
            *tt = gold_entity.types.clone();
        }
        // Food mentions read as common nouns.
        if gold_entity.has_type("food") {
            for p in pos.iter_mut().take(gold_span.1).skip(gold_span.0) {
                *p = "NOUN";
            }
        }

        let mut slices = Vec::new();
        if gold_arg != 0 {
            slices.push(SLICE_COMPLEX_DISAMBIGUATION);
        }
        if intent == "Calories" {
            slices.push(SLICE_NUTRITION);
        }

        GeneratedQuery {
            tokens,
            intent,
            pos,
            token_types,
            candidates,
            gold_arg,
            slices,
            template_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn generator_and_kb() -> (KnowledgeBase, usize) {
        let kb = KnowledgeBase::standard();
        let pool = QueryGenerator::new(&kb).ambiguous_pool_size();
        (kb, pool)
    }

    #[test]
    fn ambiguous_pool_exists() {
        let (_, pool) = generator_and_kb();
        assert!(pool >= 5, "pool size {pool}");
    }

    #[test]
    fn regular_queries_are_consistent() {
        let kb = KnowledgeBase::standard();
        let gen = QueryGenerator::new(&kb);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let q = gen.generate(&mut rng, false);
            assert_eq!(q.tokens.len(), q.pos.len());
            assert_eq!(q.tokens.len(), q.token_types.len());
            assert!(q.tokens.len() <= 16);
            assert!(!q.candidates.is_empty());
            assert!(q.gold_arg < q.candidates.len());
            assert!(INTENTS.contains(&q.intent));
            for p in &q.pos {
                assert!(POS_TAGS.contains(p), "unknown pos {p}");
            }
            // Gold candidate type matches the intent requirement.
            let gold = kb.entity(q.candidates[q.gold_arg].entity);
            assert!(required_types(q.intent).iter().any(|t| gold.has_type(t)));
            // Spans are in range.
            for c in &q.candidates {
                assert!(c.span.0 < c.span.1 && c.span.1 <= q.tokens.len());
            }
        }
    }

    #[test]
    fn forced_ambiguous_queries_are_sliced() {
        let kb = KnowledgeBase::standard();
        let gen = QueryGenerator::new(&kb);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            let q = gen.generate(&mut rng, true);
            assert!(q.gold_arg != 0, "ambiguous query must need disambiguation");
            assert!(q.slices.contains(&SLICE_COMPLEX_DISAMBIGUATION));
        }
    }

    #[test]
    fn capital_of_washington_selects_the_state() {
        let kb = KnowledgeBase::standard();
        let gen = QueryGenerator::new(&kb);
        let mut rng = SmallRng::seed_from_u64(3);
        // Search the ambiguous pool for the washington/Capital pairing.
        for _ in 0..500 {
            let q = gen.generate(&mut rng, true);
            if q.intent == "Capital" && q.tokens.contains(&"washington".to_string()) {
                let gold = kb.entity(q.candidates[q.gold_arg].entity);
                assert_eq!(gold.id, "washington_state");
                return;
            }
        }
        panic!("never generated 'capital of washington'");
    }

    #[test]
    fn nutrition_slice_applied() {
        let kb = KnowledgeBase::standard();
        let gen = QueryGenerator::new(&kb);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..500 {
            let q = gen.generate(&mut rng, false);
            if q.intent == "Calories" {
                assert!(q.slices.contains(&SLICE_NUTRITION));
                return;
            }
        }
        panic!("never generated a Calories query");
    }

    #[test]
    fn multi_token_mentions_get_subspan_distractors() {
        let kb = KnowledgeBase::standard();
        let gen = QueryGenerator::new(&kb);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..2000 {
            let q = gen.generate(&mut rng, false);
            let full = q.candidates[0].span;
            if q.candidates.iter().any(|c| c.span != full) {
                return; // found an overlapping distractor
            }
        }
        panic!("no sub-span candidates ever generated");
    }

    #[test]
    fn token_types_cover_gold_span_only() {
        let kb = KnowledgeBase::standard();
        let gen = QueryGenerator::new(&kb);
        let mut rng = SmallRng::seed_from_u64(6);
        let q = gen.generate(&mut rng, false);
        let (lo, hi) = q.candidates[q.gold_arg].span;
        for (t, types) in q.token_types.iter().enumerate() {
            if t >= lo && t < hi {
                assert!(!types.is_empty());
            } else {
                assert!(types.is_empty());
            }
        }
    }
}
