//! Parallel composition of agreement protocols.
//!
//! Runs `k` independent sub-protocols in lock-step over the same
//! communication rounds, concatenating their broadcasts into one framed
//! payload per round. Because every correct processor runs the same
//! deterministic schedules, framing is self-describing and a receiver can
//! split a peer's payload back into per-instance segments; malformed
//! frames from Byzantine senders degrade to missing messages for the
//! affected instances, which the inner protocols already tolerate.
//!
//! This is the substrate for interactive consistency (`n` parallel
//! broadcasts, one per source — the problem of Pease, Shostak & Lamport
//! that §1 of the paper builds on) and for the multivalued-to-binary
//! reduction of [`crate::multivalued`].

use sg_sim::{
    Inbox, Payload, ProcCtx, ProcessId, Protocol, RoundStatus, RunConfig, TraceEvent, Value,
};

/// Combines the sub-protocols' decisions into the composite decision.
pub type Combiner = Box<dyn Fn(&[Value]) -> Value>;

/// `k` agreement protocols running in parallel as one.
pub struct Multiplex {
    subs: Vec<Box<dyn Protocol>>,
    combine: Combiner,
    decided_vector: Option<Vec<Value>>,
    name: String,
    /// Per-instance run configurations enabling pooled resets; `None`
    /// leaves [`Protocol::reset`] unsupported (always a pool miss).
    sub_configs: Option<Vec<RunConfig>>,
}

impl Multiplex {
    /// Composes `subs` (at least one) with a decision `combine`r.
    ///
    /// # Panics
    ///
    /// Panics if `subs` is empty or the sub-protocols disagree on the
    /// number of rounds (lock-step composition needs one schedule).
    pub fn new(name: String, subs: Vec<Box<dyn Protocol>>, combine: Combiner) -> Self {
        assert!(!subs.is_empty(), "need at least one sub-protocol");
        let rounds = subs[0].total_rounds();
        assert!(
            subs.iter().all(|s| s.total_rounds() == rounds),
            "sub-protocols must share one schedule"
        );
        Multiplex {
            subs,
            combine,
            decided_vector: None,
            name,
            sub_configs: None,
        }
    }

    /// Attaches one [`RunConfig`] per sub-protocol, enabling pooled
    /// [`Protocol::reset`]: each sub resets against its own config (its
    /// own source and source value), while the composite's pool key must
    /// capture everything these configs were derived from — for
    /// interactive consistency that includes the full input vector.
    ///
    /// # Panics
    ///
    /// Panics if the count differs from the number of sub-protocols.
    pub fn with_sub_configs(mut self, sub_configs: Vec<RunConfig>) -> Self {
        assert_eq!(
            sub_configs.len(),
            self.subs.len(),
            "one config per sub-protocol"
        );
        self.sub_configs = Some(sub_configs);
        self
    }

    /// The vector of sub-decisions, available after [`Protocol::decide`].
    pub fn decided_vector(&self) -> Option<&[Value]> {
        self.decided_vector.as_deref()
    }

    /// Number of composed instances.
    pub fn width(&self) -> usize {
        self.subs.len()
    }

    /// Splits a framed payload into per-instance segments.
    ///
    /// Frame format, repeated `k` times: two length values (lo, hi) then
    /// `lo + hi·2^16` payload values. Returns `None` if the payload is
    /// not a well-formed frame sequence — the receiver then treats every
    /// instance's message from this sender as missing.
    fn split(&self, payload: &Payload) -> Option<Vec<Payload>> {
        // Read through the accessors: a Byzantine frame may arrive
        // bit-packed, and must split exactly as its value-vector twin.
        if !matches!(payload, Payload::Values(_) | Payload::Bits { .. }) {
            return None;
        }
        let total = payload.num_values();
        let at = |i: usize| payload.value_at(i).map(|v| v.raw() as usize);
        let mut segments = Vec::with_capacity(self.subs.len());
        let mut pos = 0usize;
        for _ in 0..self.subs.len() {
            let len = at(pos)? + (at(pos + 1)? << 16);
            pos += 2;
            if pos + len > total {
                return None;
            }
            segments.push(Payload::values(
                (pos..pos + len).filter_map(|i| payload.value_at(i)),
            ));
            pos += len;
        }
        (pos == total).then_some(segments)
    }
}

/// Appends one frame to the composite payload (vector and bit-packed
/// segments frame identically — the frame is always a value vector).
fn push_frame(out: &mut Vec<Value>, segment: Option<Payload>) {
    match segment {
        Some(ref p @ (Payload::Values(_) | Payload::Bits { .. })) => {
            let len = p.num_values();
            out.push(Value((len & 0xFFFF) as u16));
            out.push(Value((len >> 16) as u16));
            out.extend((0..len).map(|i| p.value_at(i).expect("index in range")));
        }
        _ => {
            out.push(Value(0));
            out.push(Value(0));
        }
    }
}

impl Protocol for Multiplex {
    fn total_rounds(&self) -> usize {
        self.subs[0].total_rounds()
    }

    fn outgoing(&mut self, ctx: &mut ProcCtx) -> Option<Payload> {
        let mut any = false;
        let mut out: Vec<Value> = Vec::new();
        for sub in &mut self.subs {
            let segment = sub.outgoing(ctx);
            any |= segment.is_some();
            push_frame(&mut out, segment);
        }
        any.then_some(Payload::Values(out))
    }

    fn deliver(&mut self, inbox: &Inbox, ctx: &mut ProcCtx) {
        let n = inbox.n();
        // Pre-split every sender's payload once.
        let split: Vec<Option<Vec<Payload>>> = (0..n)
            .map(|j| self.split(inbox.from(ProcessId(j))))
            .collect();
        for (i, sub) in self.subs.iter_mut().enumerate() {
            let mut sub_inbox = Inbox::empty(n);
            for (j, segments) in split.iter().enumerate() {
                if let Some(segments) = segments {
                    sub_inbox.set(ProcessId(j), segments[i].clone());
                }
            }
            sub.deliver(&sub_inbox, ctx);
        }
    }

    fn decide(&mut self, ctx: &mut ProcCtx) -> Value {
        let vector: Vec<Value> = self.subs.iter_mut().map(|s| s.decide(ctx)).collect();
        let decision = (self.combine)(&vector);
        ctx.emit(TraceEvent::Note {
            text: format!("{} vector {:?}", self.name, vector),
        });
        self.decided_vector = Some(vector);
        ctx.emit(TraceEvent::Decided { value: decision });
        decision
    }

    fn space_nodes(&self) -> u64 {
        self.subs.iter().map(|s| s.space_nodes()).sum()
    }

    /// Ready exactly when *every* composed instance is ready: the
    /// combined decision vector is final iff each slot is. Instances
    /// without a status hook report [`RoundStatus::Continue`], which
    /// correctly pins the composition to its full schedule.
    fn round_status(&self, ctx: &ProcCtx) -> RoundStatus {
        if self
            .subs
            .iter()
            .all(|s| s.round_status(ctx) == RoundStatus::ReadyToDecide)
        {
            RoundStatus::ReadyToDecide
        } else {
            RoundStatus::Continue
        }
    }

    fn reset(&mut self, id: ProcessId, _config: &RunConfig) -> bool {
        // Without per-instance configs the composite cannot re-derive its
        // subs' sources and inputs: report a pool miss.
        let Some(sub_configs) = &self.sub_configs else {
            return false;
        };
        for (sub, cfg) in self.subs.iter_mut().zip(sub_configs) {
            if !sub.reset(id, cfg) {
                return false;
            }
        }
        self.decided_vector = None;
        true
    }
}

/// The plurality value of `vector` (smallest value wins ties) — the usual
/// consensus combiner over an interactive-consistency vector.
pub fn plurality(vector: &[Value]) -> Value {
    let mut counts: Vec<(Value, usize)> = Vec::new();
    for v in vector {
        match counts.iter_mut().find(|(u, _)| u == v) {
            Some((_, c)) => *c += 1,
            None => counts.push((*v, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts.first().map_or(Value::DEFAULT, |(v, _)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stub sub-protocol that broadcasts a fixed vector and decides a
    /// fixed value.
    struct Stub {
        send: Vec<Value>,
        silent: bool,
        got: Vec<Option<Value>>,
        decide: Value,
    }

    impl Protocol for Stub {
        fn total_rounds(&self) -> usize {
            1
        }
        fn outgoing(&mut self, _ctx: &mut ProcCtx) -> Option<Payload> {
            (!self.silent).then(|| Payload::Values(self.send.clone()))
        }
        fn deliver(&mut self, inbox: &Inbox, _ctx: &mut ProcCtx) {
            self.got = (0..inbox.n())
                .map(|j| inbox.from(ProcessId(j)).value_at(0))
                .collect();
        }
        fn decide(&mut self, _ctx: &mut ProcCtx) -> Value {
            self.decide
        }
    }

    fn stub(send: Vec<Value>, silent: bool, decide: Value) -> Box<dyn Protocol> {
        Box::new(Stub {
            send,
            silent,
            got: Vec::new(),
            decide,
        })
    }

    #[test]
    fn frames_roundtrip_through_split() {
        let mx = Multiplex::new(
            "test".to_string(),
            vec![
                stub(vec![Value(1), Value(2)], false, Value(0)),
                stub(vec![], false, Value(0)),
                stub(vec![Value(3)], true, Value(0)),
            ],
            Box::new(plurality),
        );
        let mut out = Vec::new();
        push_frame(&mut out, Some(Payload::values([Value(1), Value(2)])));
        push_frame(&mut out, Some(Payload::values([])));
        push_frame(&mut out, None);
        let segments = mx.split(&Payload::Values(out)).expect("well-formed");
        assert_eq!(segments[0], Payload::values([Value(1), Value(2)]));
        assert_eq!(segments[1], Payload::values([]));
        assert_eq!(segments[2], Payload::values([]));
    }

    #[test]
    fn malformed_frames_are_rejected() {
        let mx = Multiplex::new(
            "test".to_string(),
            vec![stub(vec![], false, Value(0))],
            Box::new(plurality),
        );
        // Length claims more values than present.
        assert!(mx
            .split(&Payload::values([Value(5), Value(0), Value(1)]))
            .is_none());
        // Trailing garbage.
        assert!(mx
            .split(&Payload::values([Value(0), Value(0), Value(9)]))
            .is_none());
        assert!(mx.split(&Payload::Missing).is_none());
    }

    #[test]
    fn bit_packed_frames_split_like_their_vector_twins() {
        let mx = Multiplex::new(
            "test".to_string(),
            vec![stub(vec![], false, Value(0))],
            Box::new(plurality),
        );
        // One frame of length 1 (lo = 1, hi = 0) carrying a 1; then the
        // same with a trailing slot, which no longer frames.
        for frame in [vec![1, 0, 1], vec![1, 0, 1, 0]] {
            let values: Vec<Value> = frame.into_iter().map(Value).collect();
            assert_eq!(
                mx.split(&Payload::packed(values.clone())),
                mx.split(&Payload::Values(values)),
            );
        }
    }

    #[test]
    fn decide_combines_and_records_vector() {
        let mut mx = Multiplex::new(
            "test".to_string(),
            vec![
                stub(vec![], true, Value(1)),
                stub(vec![], true, Value(0)),
                stub(vec![], true, Value(1)),
            ],
            Box::new(plurality),
        );
        let mut ctx = ProcCtx::new(ProcessId(0));
        assert_eq!(mx.decide(&mut ctx), Value(1));
        assert_eq!(
            mx.decided_vector(),
            Some(&[Value(1), Value(0), Value(1)][..])
        );
    }

    #[test]
    fn plurality_breaks_ties_downward() {
        assert_eq!(plurality(&[Value(1), Value(0)]), Value(0));
        assert_eq!(plurality(&[Value(2), Value(2), Value(1)]), Value(2));
        assert_eq!(plurality(&[]), Value::DEFAULT);
    }
}
