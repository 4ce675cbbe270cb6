//! Property-based tests for the entity-tagging substrate.

use enblogue_entity::gazetteer::{EntityId, GazetteerBuilder};
use enblogue_entity::ontology::Ontology;
use enblogue_entity::tagger::{EntityTagger, Mention};
use enblogue_entity::tokenize::{normalize_phrase, tokenize};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Words drawn from a small alphabet so collisions/multi-word phrases occur.
fn word() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
    ])
    .prop_map(str::to_string)
}

fn phrase(max_words: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(word(), 1..=max_words).prop_map(|ws| ws.join(" "))
}

proptest! {
    /// Tokenisation is idempotent through normalisation, and spans always
    /// slice the input without panicking.
    #[test]
    fn tokenize_spans_valid(text in "\\PC{0,200}") {
        let tokens = tokenize(&text);
        for t in &tokens {
            prop_assert!(t.start <= t.end);
            prop_assert!(t.end <= text.len());
            // Spans must lie on char boundaries.
            prop_assert!(text.is_char_boundary(t.start));
            prop_assert!(text.is_char_boundary(t.end));
        }
        // Normalising twice equals normalising once.
        let once = normalize_phrase(&text);
        prop_assert_eq!(normalize_phrase(&once), once);
        // The streaming tokeniser (ASCII fast path) splits exactly like
        // the char-by-char Unicode reference.
        let spans: Vec<(String, usize, usize)> =
            tokens.into_iter().map(|t| (t.text, t.start, t.end)).collect();
        prop_assert_eq!(spans, reference_tokenize(&text));
    }

    /// Every title inserted into the gazetteer is found in a text that
    /// contains it verbatim (surrounded by non-dictionary noise).
    #[test]
    fn planted_titles_are_found(titles in prop::collection::hash_set(phrase(4), 1..10)) {
        let mut b = GazetteerBuilder::default();
        for t in &titles {
            b.add_title(t);
        }
        let tagger = EntityTagger::new(Arc::new(b.build()));
        for t in &titles {
            let text = format!("zzz0 {t} zzz1");
            let mentions = tagger.tag_text(&text);
            // The planted phrase may be subsumed by a longer inserted title
            // or split differently by greedy matching, but something must
            // match and every mention must be a dictionary phrase.
            prop_assert!(!mentions.is_empty(), "no mention for planted `{}`", t);
        }
    }

    /// Mentions never overlap and appear in strictly increasing token order.
    #[test]
    fn mentions_are_disjoint_and_ordered(
        titles in prop::collection::hash_set(phrase(3), 1..8),
        body in prop::collection::vec(word(), 0..40),
    ) {
        let mut b = GazetteerBuilder::default();
        for t in &titles {
            b.add_title(t);
        }
        let tagger = EntityTagger::new(Arc::new(b.build()));
        let text = body.join(" ");
        let mentions = tagger.tag_text(&text);
        for w in mentions.windows(2) {
            prop_assert!(w[0].token_start + w[0].token_len <= w[1].token_start, "overlap");
        }
        for m in &mentions {
            prop_assert!(m.token_len >= 1 && m.token_len <= 4);
        }
    }

    /// Redirect aliases resolve to the same entity as their canonical
    /// title, wherever they occur.
    #[test]
    fn redirects_are_equivalent(canon in phrase(3), alias in phrase(3)) {
        prop_assume!(normalize_phrase(&canon) != normalize_phrase(&alias));
        let mut b = GazetteerBuilder::default();
        let id = b.add_redirect(&alias, &canon);
        let tagger = EntityTagger::new(Arc::new(b.build()));
        let via_alias = tagger.tag_text(&format!("zzz {alias} zzz"));
        let via_canon = tagger.tag_text(&format!("zzz {canon} zzz"));
        prop_assert!(!via_alias.is_empty());
        prop_assert!(!via_canon.is_empty());
        prop_assert_eq!(via_alias[0].entity, id);
        prop_assert_eq!(via_canon[0].entity, id);
        prop_assert_eq!(&via_alias[0].name, &via_canon[0].name, "one unique name");
    }
}

// ---------------------------------------------------------------------------
// Reference model: the plain string-window tagger. Text is split by a
// char-by-char tokeniser, windows of ≤ 4 tokens are joined with spaces and
// probed longest-first in a phrase-string map. The library's token-id
// tagger must return exactly its mentions.
// ---------------------------------------------------------------------------

/// Char-by-char tokeniser: lowercase alphanumeric runs with byte spans,
/// intra-word apostrophes swallowed, non-alphanumeric lowercase output
/// (combining marks) dropped.
fn reference_tokenize(text: &str) -> Vec<(String, usize, usize)> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut start = 0usize;
    for (i, ch) in text.char_indices() {
        if ch.is_alphanumeric() {
            if current.is_empty() {
                start = i;
            }
            current.extend(ch.to_lowercase().filter(|lower| lower.is_alphanumeric()));
        } else if ch == '\'' && !current.is_empty() {
            continue;
        } else if !current.is_empty() {
            tokens.push((std::mem::take(&mut current), start, i));
        }
    }
    if !current.is_empty() {
        tokens.push((current, start, text.len()));
    }
    tokens
}

fn reference_key(phrase: &str) -> String {
    reference_tokenize(phrase).into_iter().map(|(t, ..)| t).collect::<Vec<_>>().join(" ")
}

/// Phrase-string dictionary with the builder's rules: duplicate titles
/// keep their id, titles win over redirects, the first alias wins.
#[derive(Default)]
struct RefGazetteer {
    phrases: HashMap<String, EntityId>,
    canonical: Vec<Arc<str>>,
}

impl RefGazetteer {
    fn add_title(&mut self, title: &str) -> EntityId {
        let key = reference_key(title);
        if let Some(&id) = self.phrases.get(&key) {
            return id;
        }
        let id = EntityId(self.canonical.len() as u32);
        self.canonical.push(Arc::from(key.as_str()));
        self.phrases.insert(key, id);
        id
    }

    fn add_redirect(&mut self, alias: &str, canonical: &str) -> EntityId {
        let id = self.add_title(canonical);
        self.phrases.entry(reference_key(alias)).or_insert(id);
        id
    }

    fn tag(&self, text: &str, admits: impl Fn(EntityId) -> bool) -> Vec<Mention> {
        let tokens: Vec<String> = reference_tokenize(text).into_iter().map(|(t, ..)| t).collect();
        let mut mentions = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let mut step = 1;
            for window in (1..=4.min(tokens.len() - i)).rev() {
                let phrase = tokens[i..i + window].join(" ");
                match self.phrases.get(&phrase) {
                    Some(&entity) if admits(entity) => {
                        let name = Arc::clone(&self.canonical[entity.index()]);
                        mentions.push(Mention { entity, name, token_start: i, token_len: window });
                        step = window;
                        break;
                    }
                    _ => {}
                }
            }
            i += step;
        }
        mentions
    }
}

/// Dictionary words, with case and Unicode variants that must normalise
/// onto each other (`İ` → `i`, `Ö` → `ö`, apostrophes swallowed).
fn dict_word() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "alpha",
        "Alpha",
        "BETA",
        "gamma",
        "delta",
        "new",
        "york",
        "city",
        "İstanbul",
        "istanbul",
        "Straße",
        "ÖL",
        "öl",
        "O'Brien",
        "obrien",
        "2010",
        "a1",
    ])
}

/// Text-only material: noise words, digits and Unicode that occurs in no
/// title (dotless `ı`, a combining mark on its own, `ẞ`, an emoji).
fn text_piece() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "alpha",
        "Alpha",
        "BETA",
        "gamma",
        "delta",
        "new",
        "york",
        "city",
        "İstanbul",
        "istanbul",
        "Straße",
        "ÖL",
        "öl",
        "O'Brien",
        "obrien",
        "2010",
        "a1",
        "the",
        "of",
        "zzz",
        "42",
        "ı",
        "e\u{301}",
        "ẞ",
        "\u{308}",
        "'",
        "🌋",
        "NEW",
        "York's",
        "x",
    ])
}

fn separator() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![" ", " ", " ", "  ", ", ", "-", "'", ". ", "\u{301}", "\n"])
}

fn dict_phrase(max_words: usize) -> impl Strategy<Value = String> {
    prop::collection::vec((dict_word(), separator()), 1..=max_words).prop_map(|parts| {
        parts.iter().enumerate().fold(String::new(), |mut out, (k, (word, sep))| {
            if k > 0 {
                out.push_str(sep);
            }
            out.push_str(word);
            out
        })
    })
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec((text_piece(), separator()), 0..60)
        .prop_map(|parts| parts.iter().map(|(piece, sep)| format!("{piece}{sep}")).collect())
}

/// Whether `phrase` is a valid dictionary entry (1–4 tokens).
fn keyable(phrase: &str) -> bool {
    (1..=4).contains(&reference_tokenize(phrase).len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The token-id tagger returns exactly the mentions of the string-window
    /// reference: same entities, names, spans and order, over gazetteers
    /// with redirects, conflicting aliases and an ontology type filter.
    #[test]
    fn tagger_matches_string_window_reference(
        titles in prop::collection::vec(dict_phrase(4), 0..12),
        redirects in prop::collection::vec((dict_phrase(3), 0usize..64), 0..10),
        types in prop::collection::vec(0usize..3, 24),
        filter in 0usize..4,
        texts in prop::collection::vec(text(), 1..6),
    ) {
        let mut builder = GazetteerBuilder::default();
        let mut reference = RefGazetteer::default();
        let titles: Vec<String> = titles.into_iter().filter(|t| keyable(t)).collect();
        for title in &titles {
            prop_assert_eq!(builder.add_title(title), reference.add_title(title));
        }
        for (alias, target) in &redirects {
            // Targets are titles (possibly already aliases elsewhere), so
            // aliases collide with titles and with each other.
            let Some(canonical) = titles.get(target % titles.len().max(1)) else { continue };
            if keyable(alias) {
                prop_assert_eq!(
                    builder.add_redirect(alias, canonical),
                    reference.add_redirect(alias, canonical)
                );
            }
        }
        let gazetteer = Arc::new(builder.build());
        prop_assert_eq!(gazetteer.entity_count(), reference.canonical.len());
        prop_assert_eq!(gazetteer.phrase_count(), reference.phrases.len());

        // Types 0..3 with 2 a subtype of 0; filter 3 means "no filter".
        let mut ob = Ontology::builder();
        let type_ids = [ob.add_type("t0"), ob.add_type("t1")];
        let sub = ob.add_subtype("t2", &[type_ids[0]]);
        let type_ids = [type_ids[0], type_ids[1], sub];
        for (entity, _) in gazetteer.entities() {
            ob.assign(entity, type_ids[types[entity.index() % types.len()]]);
        }
        let ontology = Arc::new(ob.build());
        let mut tagger = EntityTagger::new(Arc::clone(&gazetteer)).with_ontology(Arc::clone(&ontology));
        let allowed = type_ids.get(filter).map(|&t| vec![t]).unwrap_or_default();
        if !allowed.is_empty() {
            tagger = tagger.with_type_filter(allowed.clone());
        }
        let admits = |e: EntityId| allowed.is_empty() || ontology.passes_filter(e, &allowed);

        for text in &texts {
            let expected = reference.tag(text, admits);
            prop_assert_eq!(tagger.tag_text(text), expected.clone(), "text {:?}", text);
            let tokens = tokenize(text);
            let terms: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
            prop_assert_eq!(tagger.tag_tokens(&terms), expected);
        }
        // Lookups answer like the phrase-string map.
        let expected = |phrase: &str| reference.phrases.get(&reference_key(phrase)).copied();
        for (phrase, &id) in &reference.phrases {
            prop_assert_eq!(gazetteer.lookup_normalized(phrase), Some(id));
            let shouted = phrase.to_uppercase();
            prop_assert_eq!(gazetteer.lookup(&shouted), expected(&shouted));
        }
        for text in &texts {
            let key = reference_key(text);
            prop_assert_eq!(gazetteer.lookup(text), expected(text));
            prop_assert_eq!(gazetteer.lookup_normalized(&key), expected(text));
            // Not normalised: a raw phrase string only hits when it
            // happens to be a key already.
            prop_assert_eq!(gazetteer.lookup_normalized(text), reference.phrases.get(text).copied());
        }
    }
}
