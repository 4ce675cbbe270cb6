//! The title dictionary: the Wikipedia substitute.
//!
//! Maps normalised phrases of up to [`Gazetteer::MAX_NGRAM`] terms to
//! canonical entities. Redirects ("map different namings of a single entity
//! to one unique name", §3) are first-class: an alias phrase resolves to
//! the same [`EntityId`] as its canonical title.
//!
//! The dictionary is keyed by token ids, not by phrase strings:
//!
//! * **Token vocabulary.** Every distinct token of every title or alias
//!   gets a dense `u32` id ≥ 1; id 0 stands for any token that occurs in
//!   no phrase.
//! * **Packed phrase keys.** A phrase of ≤ 4 tokens is the exact `u128`
//!   key of its four 32-bit ids, zero-padded. No phrase strings are kept.
//! * **Span pruning.** Per token id, the length of the longest phrase that
//!   starts with it bounds the windows the tagger probes; a token that
//!   starts no phrase is never probed at all.
//!
//! Keys are built with the same tokeniser that splits document text, so a
//! title always matches its own occurrence.

use crate::tokenize::for_each_token;
use enblogue_types::{FxBuildHasher, FxHashMap};
use std::collections::hash_map::Entry;
use std::hash::BuildHasher;
use std::sync::Arc;

/// Identifier of a canonical entity within a [`Gazetteer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

impl EntityId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Packs the token ids of a phrase (at most [`Gazetteer::MAX_NGRAM`] of
/// them, all ≥ 1) into one exact key: id `k` fills bits `32k..32k + 32`,
/// unused slots stay zero.
#[inline]
fn pack(ids: &[u32]) -> u128 {
    debug_assert!(ids.len() <= Gazetteer::MAX_NGRAM);
    ids.iter().enumerate().fold(0, |key, (k, &id)| key | u128::from(id) << (32 * k))
}

/// Phrase tokens with their dense ids.
#[derive(Debug, Clone)]
struct Vocabulary {
    ids: FxHashMap<Box<str>, u32>,
    /// Indexed by token id: the longest phrase (in tokens) that starts
    /// with that token. 0 for id 0 and for tokens that only occur later
    /// in a phrase.
    span_from: Vec<u8>,
    /// One bit per hash prefix of every vocabulary token (a one-hash Bloom
    /// filter, [`Self::seal`]): most text tokens are in no phrase, and a
    /// clear bit settles that without probing `ids`.
    filter: Vec<u64>,
    /// `64 - log2(filter bits)`: the hash's top bits pick the filter bit.
    filter_shift: u32,
}

impl Default for Vocabulary {
    fn default() -> Self {
        Vocabulary {
            ids: FxHashMap::default(),
            span_from: vec![0],
            filter: vec![0],
            filter_shift: 58,
        }
    }
}

impl Vocabulary {
    #[inline]
    fn hash(token: &str) -> u64 {
        FxBuildHasher::default().hash_one(token)
    }

    #[inline]
    fn id(&self, token: &str) -> u32 {
        let bit = (Self::hash(token) >> self.filter_shift) as usize;
        if self.filter[bit / 64] & (1 << (bit % 64)) == 0 {
            return 0;
        }
        self.ids.get(token).copied().unwrap_or(0)
    }

    /// Builder side: the id of `token`, assigning the next one if new. The
    /// filter is only rebuilt by [`Self::seal`].
    fn id_or_insert(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = u32::try_from(self.span_from.len()).expect("too many dictionary tokens");
        self.ids.insert(token.into(), id);
        self.span_from.push(0);
        id
    }

    /// Sizes the filter at ≥ 16 bits per token (≤ ~6% false positives) and
    /// sets the bit of every token.
    fn seal(&mut self) {
        let bits = (self.ids.len() * 16).next_power_of_two().max(64);
        self.filter_shift = 64 - bits.trailing_zeros();
        self.filter = vec![0; bits / 64];
        for token in self.ids.keys() {
            let bit = (Self::hash(token) >> self.filter_shift) as usize;
            self.filter[bit / 64] |= 1 << (bit % 64);
        }
    }
}

/// Immutable phrase → entity dictionary with redirects.
#[derive(Debug, Clone)]
pub struct Gazetteer {
    vocab: Vocabulary,
    /// Packed phrase key → entity. Contains titles *and* redirect aliases.
    phrases: FxHashMap<u128, EntityId>,
    /// Canonical names by entity id.
    canonical: Vec<Arc<str>>,
    /// Longest phrase (in tokens) present.
    max_phrase_len: usize,
    redirect_count: usize,
}

impl Gazetteer {
    /// The paper's sliding-window bound: titles of up to 4 successive terms.
    pub const MAX_NGRAM: usize = 4;

    /// Starts building a gazetteer.
    pub fn builder() -> GazetteerBuilder {
        GazetteerBuilder::default()
    }

    /// Number of canonical entities.
    pub fn entity_count(&self) -> usize {
        self.canonical.len()
    }

    /// Number of redirect aliases.
    pub fn redirect_count(&self) -> usize {
        self.redirect_count
    }

    /// Number of lookup keys (titles + redirects).
    pub fn phrase_count(&self) -> usize {
        self.phrases.len()
    }

    /// Longest phrase length in tokens (≤ [`Self::MAX_NGRAM`]).
    pub fn max_phrase_len(&self) -> usize {
        self.max_phrase_len
    }

    /// The canonical name of `id`.
    pub fn canonical_name(&self, id: EntityId) -> Option<Arc<str>> {
        self.canonical.get(id.index()).cloned()
    }

    /// The id of a normalised token (as produced by
    /// [`crate::tokenize::tokenize`]), or 0 if no title or alias contains
    /// it.
    #[inline]
    pub(crate) fn token_id(&self, token: &str) -> u32 {
        self.vocab.id(token)
    }

    /// The length (in tokens) of the longest phrase that starts with token
    /// `id`; 0 when no phrase starts with it (always for id 0).
    #[inline]
    pub(crate) fn span_from(&self, id: u32) -> usize {
        self.vocab.span_from.get(id as usize).map_or(0, |&len| usize::from(len))
    }

    /// Looks up a phrase given as token ids (each ≥ 1, at most
    /// [`Self::MAX_NGRAM`] of them). Resolves through redirects.
    #[inline]
    pub(crate) fn lookup_ids(&self, ids: &[u32]) -> Option<EntityId> {
        debug_assert!(ids.len() <= Self::MAX_NGRAM && !ids.contains(&0));
        self.phrases.get(&pack(ids)).copied()
    }

    /// Looks up an already-normalised phrase (tokens joined by single
    /// spaces, lowercase). Resolves through redirects.
    pub fn lookup_normalized(&self, phrase: &str) -> Option<EntityId> {
        self.lookup_phrase(phrase.split(' ').map(|token| self.token_id(token)))
    }

    /// Looks up an arbitrary phrase, normalising it first.
    pub fn lookup(&self, phrase: &str) -> Option<EntityId> {
        let mut ids = Vec::new();
        for_each_token(phrase, &mut String::new(), |token, _, _| ids.push(self.token_id(token)));
        self.lookup_phrase(ids)
    }

    /// Looks up the phrase of `ids`: a miss if any token is outside the
    /// vocabulary or there are more than [`Self::MAX_NGRAM`] of them.
    fn lookup_phrase(&self, ids: impl IntoIterator<Item = u32>) -> Option<EntityId> {
        let mut window = [0u32; Self::MAX_NGRAM];
        let mut len = 0;
        for id in ids {
            if id == 0 || len == window.len() {
                return None;
            }
            window[len] = id;
            len += 1;
        }
        self.lookup_ids(&window[..len])
    }

    /// Iterates canonical names with their ids.
    pub fn entities(&self) -> impl Iterator<Item = (EntityId, &Arc<str>)> {
        self.canonical.iter().enumerate().map(|(i, name)| (EntityId(i as u32), name))
    }
}

/// Builder for [`Gazetteer`].
#[derive(Debug, Default)]
pub struct GazetteerBuilder {
    vocab: Vocabulary,
    phrases: FxHashMap<u128, EntityId>,
    canonical: Vec<Arc<str>>,
    max_phrase_len: usize,
    redirect_count: usize,
    /// Token buffer of the tokeniser, reused across phrases.
    token_buf: String,
    /// Normalised form of the last phrase keyed, reused across phrases.
    name_buf: String,
}

impl GazetteerBuilder {
    /// Adds a canonical article title, returning its entity id.
    ///
    /// Titles longer than [`Gazetteer::MAX_NGRAM`] tokens are rejected:
    /// the tagger's window never probes them, so accepting them would
    /// create dead dictionary weight.
    ///
    /// Adding the same title twice returns the existing id.
    ///
    /// # Panics
    /// Panics if the title normalises to an empty phrase or exceeds the
    /// n-gram bound.
    pub fn add_title(&mut self, title: &str) -> EntityId {
        let (key, token_len) = self.key(title);
        assert!(token_len > 0, "entity title must contain at least one token");
        assert!(
            token_len <= Gazetteer::MAX_NGRAM,
            "title `{title}` has {token_len} tokens, max is {}",
            Gazetteer::MAX_NGRAM
        );
        if let Some(&id) = self.phrases.get(&key) {
            return id;
        }
        let id = EntityId(u32::try_from(self.canonical.len()).expect("too many entities"));
        self.canonical.push(Arc::from(self.name_buf.as_str()));
        self.phrases.insert(key, id);
        self.note_phrase(key, token_len);
        id
    }

    /// Adds a redirect: `alias` resolves to the entity of `canonical`.
    ///
    /// The canonical title is added implicitly if absent (Wikipedia dumps
    /// list redirects independent of page order).
    ///
    /// # Panics
    /// Panics on empty or over-long aliases, like [`Self::add_title`].
    pub fn add_redirect(&mut self, alias: &str, canonical: &str) -> EntityId {
        let id = self.add_title(canonical);
        let (key, token_len) = self.key(alias);
        assert!(token_len > 0, "redirect alias must contain at least one token");
        assert!(
            token_len <= Gazetteer::MAX_NGRAM,
            "alias `{alias}` has {token_len} tokens, max is {}",
            Gazetteer::MAX_NGRAM
        );
        // An alias that is already a canonical title keeps its own entity
        // (titles win over redirects, as in Wikipedia).
        if let Entry::Vacant(e) = self.phrases.entry(key) {
            e.insert(id);
            self.redirect_count += 1;
            self.note_phrase(key, token_len);
        }
        id
    }

    /// Tokenises `phrase`, giving each new token an id, and returns its
    /// packed key (over the first [`Gazetteer::MAX_NGRAM`] tokens) with
    /// its full token count. Leaves the normalised phrase in `name_buf`.
    fn key(&mut self, phrase: &str) -> (u128, usize) {
        let Self { vocab, token_buf, name_buf, .. } = self;
        name_buf.clear();
        let mut ids = [0u32; Gazetteer::MAX_NGRAM];
        let mut len = 0usize;
        for_each_token(phrase, token_buf, |token, _, _| {
            if let Some(slot) = ids.get_mut(len) {
                *slot = vocab.id_or_insert(token);
            }
            if len > 0 {
                name_buf.push(' ');
            }
            name_buf.push_str(token);
            len += 1;
        });
        (pack(&ids[..len.min(Gazetteer::MAX_NGRAM)]), len)
    }

    /// Records a newly inserted phrase in the span bound of its first
    /// token and in the dictionary-wide maximum.
    fn note_phrase(&mut self, key: u128, token_len: usize) {
        // The key's low 32 bits are the id of the phrase's first token.
        let span = &mut self.vocab.span_from[key as u32 as usize];
        *span = (*span).max(token_len as u8);
        self.max_phrase_len = self.max_phrase_len.max(token_len);
    }

    /// Finalises the dictionary.
    pub fn build(mut self) -> Gazetteer {
        self.vocab.seal();
        Gazetteer {
            vocab: self.vocab,
            phrases: self.phrases,
            canonical: self.canonical,
            max_phrase_len: self.max_phrase_len,
            redirect_count: self.redirect_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titles_resolve_to_themselves() {
        let mut b = Gazetteer::builder();
        let obama = b.add_title("Barack Obama");
        let g = b.build();
        assert_eq!(g.lookup("barack obama"), Some(obama));
        assert_eq!(g.lookup("Barack  OBAMA"), Some(obama));
        assert_eq!(g.canonical_name(obama).as_deref(), Some("barack obama"));
        assert_eq!(g.entity_count(), 1);
    }

    #[test]
    fn redirects_resolve_to_canonical() {
        let mut b = Gazetteer::builder();
        let id = b.add_redirect("Obama", "Barack Obama");
        let g = b.build();
        assert_eq!(g.lookup("obama"), Some(id));
        assert_eq!(g.lookup("barack obama"), Some(id));
        assert_eq!(g.entity_count(), 1, "redirect does not create an entity");
        assert_eq!(g.redirect_count(), 1);
        assert_eq!(g.phrase_count(), 2);
    }

    #[test]
    fn duplicate_titles_are_idempotent() {
        let mut b = Gazetteer::builder();
        let a = b.add_title("Iceland");
        let b2 = b.add_title("iceland");
        assert_eq!(a, b2);
        assert_eq!(b.build().entity_count(), 1);
    }

    #[test]
    fn titles_win_over_redirects() {
        let mut b = Gazetteer::builder();
        let georgia_state = b.add_title("Georgia");
        let _usa = b.add_redirect("Georgia", "United States"); // conflicting alias
        let g = b.build();
        assert_eq!(g.lookup("georgia"), Some(georgia_state), "existing title is not overwritten");
        assert_eq!(g.redirect_count(), 0);
    }

    #[test]
    fn unknown_phrases_miss() {
        let mut b = Gazetteer::builder();
        b.add_title("volcano");
        let g = b.build();
        assert_eq!(g.lookup("volcanoes"), None);
        assert_eq!(g.lookup(""), None);
    }

    #[test]
    fn max_phrase_len_tracks_longest() {
        let mut b = Gazetteer::builder();
        b.add_title("iceland");
        assert_eq!(b.max_phrase_len, 1);
        b.add_title("icelandic air traffic control");
        let g = b.build();
        assert_eq!(g.max_phrase_len(), 4);
    }

    #[test]
    #[should_panic(expected = "max is 4")]
    fn overlong_title_rejected() {
        let mut b = Gazetteer::builder();
        b.add_title("one two three four five");
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_title_rejected() {
        let mut b = Gazetteer::builder();
        b.add_title("!!!");
    }

    #[test]
    fn entities_iterator_is_complete() {
        let mut b = Gazetteer::builder();
        b.add_title("a");
        b.add_title("b");
        b.add_redirect("c", "a");
        let g = b.build();
        let names: Vec<String> = g.entities().map(|(_, n)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
