//! Output checks. Each returns the misses it found; every miss counts as a failed operation.

use std::collections::BTreeMap;

use pasoa_core::passertion::RecordedAssertion;

fn canonical(recorded: &RecordedAssertion) -> String {
    serde_json::to_string(recorded).expect("assertions serialize")
}

fn multiset(items: &[RecordedAssertion]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for item in items {
        *counts.entry(canonical(item)).or_insert(0) += 1;
    }
    counts
}

/// The store's committed count equals what was acknowledged.
pub fn committed_count(label: &str, stored: u64, acked: u64) -> Vec<String> {
    if stored == acked {
        Vec::new()
    } else {
        vec![format!(
            "{label}: store holds {stored} assertions, {acked} were acked"
        )]
    }
}

/// A session's answer holds exactly the generated assertions: none dropped, none duplicated,
/// none that was never sent.
pub fn session_answer(
    label: &str,
    expected: &[RecordedAssertion],
    actual: &[RecordedAssertion],
) -> Vec<String> {
    let want = multiset(expected);
    let got = multiset(actual);
    let mut misses = Vec::new();
    for (key, &n) in &want {
        let have = got.get(key).copied().unwrap_or(0);
        if have < n {
            misses.push(format!("{label}: {} assertion(s) dropped", n - have));
        } else if have > n {
            misses.push(format!("{label}: assertion duplicated {have}x"));
        }
    }
    for (key, &n) in &got {
        if !want.contains_key(key) {
            misses.push(format!("{label}: {n} phantom assertion(s)"));
        }
    }
    misses
}

/// An answer that must equal the expected one element for element, in order.
pub fn ordered_answer(
    label: &str,
    expected: &[RecordedAssertion],
    actual: &[RecordedAssertion],
) -> Vec<String> {
    if expected == actual {
        return Vec::new();
    }
    let mut misses = session_answer(label, expected, actual);
    if misses.is_empty() {
        misses.push(format!("{label}: right assertions in the wrong order"));
    }
    misses
}

/// One delivered feed event as the checks see it: its queue sequence and the identity of the
/// assertion it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    pub seq: u64,
    pub key: String,
}

/// After the final drain: every acked assertion was delivered exactly once, nothing else was
/// delivered, and sequences strictly increase in delivery order.
pub fn feed_delivery(acked: &[String], delivered: &[Delivered]) -> Vec<String> {
    let mut misses = Vec::new();
    if let Some(w) = delivered.windows(2).find(|w| w[1].seq <= w[0].seq) {
        misses.push(format!(
            "feed: event seq {} delivered after seq {}",
            w[1].seq, w[0].seq
        ));
    }
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for d in delivered {
        *seen.entry(d.key.as_str()).or_insert(0) += 1;
    }
    let mut want: BTreeMap<&str, usize> = BTreeMap::new();
    for key in acked {
        *want.entry(key.as_str()).or_insert(0) += 1;
    }
    let missing = want.keys().filter(|k| !seen.contains_key(*k)).count();
    if missing > 0 {
        misses.push(format!(
            "feed: {missing} acked assertion(s) never delivered"
        ));
    }
    let duplicated = seen.values().filter(|&&n| n > 1).count();
    if duplicated > 0 {
        misses.push(format!(
            "feed: {duplicated} assertion(s) delivered more than once"
        ));
    }
    let phantom = seen.keys().filter(|k| !want.contains_key(*k)).count();
    if phantom > 0 {
        misses.push(format!(
            "feed: {phantom} delivered assertion(s) were never acked"
        ));
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn session() -> Vec<RecordedAssertion> {
        gen::session_assertions(42, 0, 3)
    }

    #[test]
    fn exact_answer_passes() {
        let expected = session();
        let mut shuffled = expected.clone();
        shuffled.reverse();
        assert!(session_answer("s", &expected, &shuffled).is_empty());
        assert!(ordered_answer("s", &expected, &expected).is_empty());
        assert!(committed_count("c", 64, 64).is_empty());
    }

    #[test]
    fn dropped_assertion_is_caught() {
        let expected = session();
        let mut doctored = expected.clone();
        doctored.remove(17);
        let misses = session_answer("s", &expected, &doctored);
        assert_eq!(misses.len(), 1);
        assert!(misses[0].contains("dropped"), "{misses:?}");
        assert_eq!(committed_count("c", 63, 64).len(), 1);
    }

    #[test]
    fn duplicated_assertion_is_caught() {
        let expected = session();
        let mut doctored = expected.clone();
        doctored.push(expected[5].clone());
        let misses = session_answer("s", &expected, &doctored);
        assert_eq!(misses.len(), 1);
        assert!(misses[0].contains("duplicated"), "{misses:?}");
        assert_eq!(committed_count("c", 65, 64).len(), 1);
    }

    #[test]
    fn phantom_and_misordered_answers_are_caught() {
        let expected = session();
        let mut doctored = expected.clone();
        doctored[0] = gen::record_assertion(42, 1, 3, 0);
        let misses = session_answer("s", &expected, &doctored);
        assert!(misses.iter().any(|m| m.contains("phantom")), "{misses:?}");
        assert!(misses.iter().any(|m| m.contains("dropped")), "{misses:?}");
        let mut swapped = expected.clone();
        swapped.swap(0, 1);
        let misses = ordered_answer("s", &expected, &swapped);
        assert_eq!(
            misses,
            vec!["s: right assertions in the wrong order".to_string()]
        );
    }

    fn feed(keys: &[(u64, &str)]) -> Vec<Delivered> {
        keys.iter()
            .map(|&(seq, key)| Delivered {
                seq,
                key: key.into(),
            })
            .collect()
    }

    #[test]
    fn feed_exactly_once_in_order_passes() {
        let acked = vec!["a".to_string(), "b".into(), "c".into()];
        assert!(feed_delivery(&acked, &feed(&[(1, "a"), (2, "b"), (5, "c")])).is_empty());
    }

    #[test]
    fn out_of_order_feed_event_is_caught() {
        let acked = vec!["a".to_string(), "b".into(), "c".into()];
        let misses = feed_delivery(&acked, &feed(&[(1, "a"), (3, "c"), (2, "b")]));
        assert_eq!(misses.len(), 1);
        assert!(misses[0].contains("delivered after"), "{misses:?}");
    }

    #[test]
    fn dropped_and_duplicated_feed_events_are_caught() {
        let acked = vec!["a".to_string(), "b".into(), "c".into()];
        let dropped = feed_delivery(&acked, &feed(&[(1, "a"), (2, "b")]));
        assert!(dropped[0].contains("never delivered"), "{dropped:?}");
        let duplicated = feed_delivery(&acked, &feed(&[(1, "a"), (2, "b"), (3, "b"), (4, "c")]));
        assert!(duplicated[0].contains("more than once"), "{duplicated:?}");
        let phantom = feed_delivery(&acked, &feed(&[(1, "a"), (2, "b"), (3, "c"), (4, "z")]));
        assert!(phantom[0].contains("never acked"), "{phantom:?}");
    }
}
