//! Every input the workloads send, derived from the workload seed: the same seed gives the same
//! sessions, payloads, corpus and query targets, and the verifiers regenerate the expected
//! answers from it.

use pasoa_core::ids::{ActorId, DataId, InteractionKey, SessionId};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RecordedAssertion, RelationshipPAssertion, ViewKind,
};

/// Assertions per `Record` message.
pub const RECORD_BATCH: usize = 16;
/// Assertions per recorded session (four `Record` messages).
pub const SESSION_ASSERTIONS: usize = 64;
/// Content bytes per interaction p-assertion.
pub const PAYLOAD_BYTES: usize = 128;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seed for one independent stream of the workload (`stream` names its purpose).
pub fn substream(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

fn payload(seed: u64, writer: usize, session: usize, i: usize) -> String {
    const ALPHABET: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
    let mut rng = Rng::new(substream(
        seed,
        ((writer as u64) << 48) ^ ((session as u64) << 16) ^ i as u64,
    ));
    (0..PAYLOAD_BYTES)
        .map(|_| ALPHABET[rng.below(ALPHABET.len())] as char)
        .collect()
}

/// Session id of `writer`'s `session`-th recorded session.
pub fn record_session(seed: u64, writer: usize, session: usize) -> SessionId {
    SessionId::new(format!("session:bench:{seed:x}:w{writer}:s{session}"))
}

/// The `i`-th interaction p-assertion of a recorded session.
pub fn record_assertion(seed: u64, writer: usize, session: usize, i: usize) -> RecordedAssertion {
    let asserter = ActorId::new(format!("bench-recorder-{writer}"));
    let tag = format!("{seed:x}:w{writer}:s{session}:{i:04}");
    RecordedAssertion {
        session: record_session(seed, writer, session),
        assertion: PAssertion::Interaction(InteractionPAssertion {
            interaction_key: InteractionKey::new(format!("interaction:bench:{tag}")),
            asserter: asserter.clone(),
            view: ViewKind::Sender,
            sender: asserter,
            receiver: ActorId::new("measure-service"),
            operation: "measure".into(),
            content: PAssertionContent::text(payload(seed, writer, session, i)),
            data_ids: vec![DataId::new(format!("data:bench:{tag}"))],
        }),
    }
}

/// All assertions of one recorded session, in record order.
pub fn session_assertions(seed: u64, writer: usize, session: usize) -> Vec<RecordedAssertion> {
    (0..SESSION_ASSERTIONS)
        .map(|i| record_assertion(seed, writer, session, i))
        .collect()
}

/// `(session, index)` of a recorded assertion, parsed back from its interaction key.
pub fn record_position(recorded: &RecordedAssertion) -> Option<(usize, usize)> {
    let key = match &recorded.assertion {
        PAssertion::Interaction(p) => p.interaction_key.as_str(),
        _ => return None,
    };
    let mut parts = key.rsplit(':');
    let i = parts.next()?.parse().ok()?;
    let session = parts.next()?.strip_prefix('s')?.parse().ok()?;
    Some((session, i))
}

/// Sessions in the preloaded query corpus.
pub const CORPUS_SESSIONS: usize = 40;
/// Assertions per corpus session (every third a derivation edge).
pub const CORPUS_PER_SESSION: usize = 240;

pub fn corpus_session(seed: u64, session: usize) -> SessionId {
    SessionId::new(format!("session:corpus:{seed:x}:{session:03}"))
}

fn corpus_key(seed: u64, session: usize, i: usize) -> InteractionKey {
    InteractionKey::new(format!("interaction:corpus:{seed:x}:{session:03}:{i:06}"))
}

fn corpus_data(seed: u64, session: usize, i: usize) -> DataId {
    DataId::new(format!("data:corpus:{seed:x}:{session:03}:{i:06}"))
}

/// Assertion `k` of a corpus session, in the experiment's shape: an interaction, the receiving
/// actor's script state, then a derivation edge extending the session's lineage chain.
pub fn corpus_assertion(seed: u64, session: usize, k: usize) -> RecordedAssertion {
    let asserter = ActorId::new(format!("client-{:02}", session % 8));
    let assertion = match k % 3 {
        0 => PAssertion::Interaction(InteractionPAssertion {
            interaction_key: corpus_key(seed, session, k),
            asserter: asserter.clone(),
            view: ViewKind::Sender,
            sender: asserter,
            receiver: ActorId::new("measure-service"),
            operation: "measure".into(),
            content: PAssertionContent::text(payload(seed, 1000 + session, 0, k)),
            data_ids: vec![corpus_data(seed, session, k)],
        }),
        1 => PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: corpus_key(seed, session, k - 1),
            asserter,
            view: ViewKind::Receiver,
            kind: ActorStateKind::Script,
            content: PAssertionContent::text(format!("script s{session}k{k}")),
        }),
        _ => PAssertion::Relationship(RelationshipPAssertion {
            interaction_key: corpus_key(seed, session, k),
            asserter,
            effect: corpus_data(seed, session, k),
            causes: vec![(
                corpus_key(seed, session, k.saturating_sub(3)),
                corpus_data(seed, session, k.saturating_sub(3)),
            )],
            relation: "derived-from".into(),
        }),
    };
    RecordedAssertion {
        session: corpus_session(seed, session),
        assertion,
    }
}

/// Every assertion of one corpus session, in record order.
pub fn corpus_session_assertions(seed: u64, session: usize) -> Vec<RecordedAssertion> {
    (0..CORPUS_PER_SESSION)
        .map(|k| corpus_assertion(seed, session, k))
        .collect()
}

/// The deepest data item of a corpus session: its closure walks the whole chain.
pub fn corpus_deepest(seed: u64, session: usize) -> DataId {
    let k = (0..CORPUS_PER_SESSION)
        .rev()
        .find(|k| k % 3 == 2)
        .expect("chain");
    corpus_data(seed, session, k)
}

/// Data ids in the lineage closure of the deepest item: every derived item on its chain (the
/// chain's root is a cause only, so the lineage graph holds no node for it).
pub fn corpus_closure_ids(seed: u64, session: usize) -> Vec<String> {
    let mut ids: Vec<String> = (0..CORPUS_PER_SESSION)
        .filter(|k| k % 3 == 2)
        .map(|k| corpus_data(seed, session, k).as_str().to_string())
        .collect();
    ids.sort();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(record_assertion(9, 1, 2, 3), record_assertion(9, 1, 2, 3));
        assert_ne!(record_assertion(9, 1, 2, 3), record_assertion(10, 1, 2, 3));
        assert_eq!(corpus_assertion(5, 3, 8), corpus_assertion(5, 3, 8));
    }

    #[test]
    fn positions_parse_back() {
        let a = record_assertion(0xabc, 1, 77, 42);
        assert_eq!(record_position(&a), Some((77, 42)));
    }
}
