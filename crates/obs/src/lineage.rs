//! Causal packet lineage: follow one datagram across every layer.
//!
//! A *span* is born when a packet enters the IP layer at its origin
//! node (for media packets the player stamps packetisation metadata on
//! it first), and every later stage transition — fragmentation, link
//! transmission, scheduler dequeue/arrival, capture taps, reassembly,
//! application delivery, playback buffering and playout — appends a
//! [`LineageEvent`] carrying the sim timestamp. Fragments of one
//! datagram share the parent's span and are told apart by their
//! fragment offset (the event's `aux` field), so a lost fragment is
//! attributed to the datagram it doomed.
//!
//! The recorder obeys the workspace no-perturbation invariant: it
//! never draws randomness, never schedules events, and is only ever
//! touched behind an `Option` that is `None` unless lineage tracing
//! was explicitly enabled, so a run with lineage on is bit-identical
//! to the same seed with lineage off.
//!
//! On top of the raw dump this module derives *explanations*:
//! per-span timelines with a terminal [`SpanOutcome`], per-stage
//! latency samples and histograms, a drop post-mortem attributing
//! every lost wire packet to the exact component and cause (each
//! cause reconciles 1:1 against an always-on simulator counter), and
//! a deterministic Chrome-trace-event JSON export loadable in
//! Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.

use crate::intern::{Interner, SymbolId};
use crate::metrics::MetricsRegistry;
use std::fmt::Write as _;

/// Default cap on recorded stage events (~32 MB); past it events are
/// counted in [`LineageRecorder::dropped`] instead of recorded.
pub const DEFAULT_EVENT_CAPACITY: usize = 4_000_000;

/// What killed a wire packet. Every variant reconciles against exactly
/// one always-on simulator counter (see [`DropCause::counter`]), which
/// is how the drop post-mortem proves it accounted for 100% of losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropCause {
    /// Link drop-tail queue was full.
    QueueFull,
    /// RED early drop on an (otherwise non-full) link queue.
    RedEarly,
    /// Link fault injector consumed the packet.
    Fault,
    /// TTL reached zero at a router.
    TtlExpired,
    /// No route to the destination (includes DF-refused fragmentation).
    NoRoute,
    /// Payload failed protocol decode at the destination.
    DecodeError,
    /// UDP datagram arrived for a port nobody listens on.
    UdpUnreachable,
    /// TCP segment arrived for a port nobody listens on.
    TcpUnreachable,
    /// Reassembly abandoned the datagram: timer expired with holes.
    ReasmTimeout,
    /// Fragment rejected as malformed by the reassembler.
    ReasmInvalid,
    /// Fragment carried only bytes that had already arrived.
    ReasmDuplicate,
}

impl DropCause {
    /// Every cause, in stable report order.
    pub const ALL: [DropCause; 11] = [
        DropCause::QueueFull,
        DropCause::RedEarly,
        DropCause::Fault,
        DropCause::TtlExpired,
        DropCause::NoRoute,
        DropCause::DecodeError,
        DropCause::UdpUnreachable,
        DropCause::TcpUnreachable,
        DropCause::ReasmTimeout,
        DropCause::ReasmInvalid,
        DropCause::ReasmDuplicate,
    ];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            DropCause::QueueFull => "queue_full",
            DropCause::RedEarly => "red_early",
            DropCause::Fault => "fault",
            DropCause::TtlExpired => "ttl_expired",
            DropCause::NoRoute => "no_route",
            DropCause::DecodeError => "decode_error",
            DropCause::UdpUnreachable => "udp_unreachable",
            DropCause::TcpUnreachable => "tcp_unreachable",
            DropCause::ReasmTimeout => "reassembly_timeout",
            DropCause::ReasmInvalid => "reassembly_invalid",
            DropCause::ReasmDuplicate => "reassembly_duplicate",
        }
    }

    /// The always-on metrics counter this cause must sum to.
    pub fn counter(self) -> &'static str {
        match self {
            DropCause::QueueFull => "link_dropped_queue_total",
            DropCause::RedEarly => "link_dropped_red_total",
            DropCause::Fault => "link_dropped_fault_total",
            DropCause::TtlExpired => "node_ttl_expired_total",
            DropCause::NoRoute => "node_no_route_total",
            DropCause::DecodeError => "node_decode_errors_total",
            DropCause::UdpUnreachable => "node_udp_unreachable_total",
            DropCause::TcpUnreachable => "node_tcp_unreachable_total",
            DropCause::ReasmTimeout => "reassembly_timed_out_total",
            DropCause::ReasmInvalid => "reassembly_invalid_total",
            DropCause::ReasmDuplicate => "reassembly_duplicates_total",
        }
    }

    /// Whether this cause dooms the whole datagram's span. Duplicate
    /// and invalid fragments waste a wire packet without preventing
    /// the datagram from completing.
    pub fn fatal(self) -> bool {
        !matches!(self, DropCause::ReasmInvalid | DropCause::ReasmDuplicate)
    }
}

/// A lifecycle stage transition. The meaning of an event's `aux` field
/// depends on the stage, as documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Span born: packet entered the IP layer at its origin node.
    /// `aux` = payload length in bytes.
    Sent,
    /// Datagram split for the path MTU. `aux` = fragment count.
    Fragmented,
    /// Offered to a link transmitter. `aux` = fragment offset (8-byte
    /// units), distinguishing the fragments of one span.
    LinkTx,
    /// Popped from the event queue (heap or wheel — identically) and
    /// arrived at a node. `aux` = fragment offset.
    Arrived,
    /// Seen by a capture tap. `aux` = fragment offset.
    Sniffed,
    /// Fragment accepted by the reassembler, datagram still has holes.
    /// `aux` = fragment offset.
    ReasmHeld,
    /// Datagram fully reassembled at the destination. `aux` = 0.
    Reassembled,
    /// Handed to an application (or consumed by the protocol layer,
    /// e.g. an echo responder). `aux` = destination port where known.
    Delivered,
    /// Media payload admitted to the client playback buffer.
    /// `aux` = media time in ms.
    Buffered,
    /// Playout clock passed the payload's deadline: counted as played.
    /// `aux` = media time in ms.
    Played,
    /// A wire packet of this span was killed. `aux` = fragment offset
    /// where known.
    Dropped(DropCause),
}

impl Stage {
    /// Stable lowercase label (drop causes share `"dropped"`; use
    /// [`DropCause::label`] for the detail).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Sent => "sent",
            Stage::Fragmented => "fragmented",
            Stage::LinkTx => "link_tx",
            Stage::Arrived => "arrived",
            Stage::Sniffed => "sniffed",
            Stage::ReasmHeld => "reasm_held",
            Stage::Reassembled => "reassembled",
            Stage::Delivered => "delivered",
            Stage::Buffered => "buffered",
            Stage::Played => "played",
            Stage::Dropped(_) => "dropped",
        }
    }
}

/// Application-layer context stamped on a span at packetisation time
/// by the media players.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketizeMeta {
    /// Player code — see `turb_media::player_code` (0 = unknown).
    pub player: u8,
    /// Media sequence number.
    pub sequence: u32,
    /// Media timestamp of the payload, milliseconds.
    pub media_time_ms: u32,
}

/// Where and when a span was born.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanOrigin {
    /// Sim time of birth, nanoseconds.
    pub time_ns: u64,
    /// Interned origin component (a node), against the run's shared
    /// [`Interner`].
    pub comp: SymbolId,
    /// Packetisation metadata, for media spans.
    pub meta: Option<PacketizeMeta>,
}

/// One stage transition of one span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineageEvent {
    /// The span this event belongs to (index into the origin table).
    pub span: u64,
    /// Sim time, nanoseconds.
    pub time_ns: u64,
    /// Interned component the transition happened at, against the
    /// run's shared [`Interner`].
    pub comp: SymbolId,
    /// The stage reached.
    pub stage: Stage,
    /// Stage-dependent detail — see [`Stage`].
    pub aux: u32,
}

/// Append-only span/event recorder. Span ids are indices into the
/// origin table, so same-seed runs allocate identical ids. Component
/// names live in the run's shared [`Interner`] — events carry
/// [`SymbolId`]s, so recording never allocates or scans a string
/// table; the dump snapshots the resolved names at
/// [`LineageRecorder::finish`] time.
#[derive(Debug)]
pub struct LineageRecorder {
    origins: Vec<SpanOrigin>,
    events: Vec<LineageEvent>,
    capacity: usize,
    dropped: u64,
    /// OR-ed into every allocated span id. Zero for a sequential run;
    /// a sharded run gives domain `d` the base `d << SPAN_DOMAIN_SHIFT`
    /// so span ids allocated concurrently by different domains never
    /// collide and [`LineageDump::merge_domains`] can decode which
    /// per-domain origin table an id indexes.
    span_base: u64,
}

/// Bit position of the domain tag inside a span id. The low 48 bits
/// index the owning recorder's origin table.
pub const SPAN_DOMAIN_SHIFT: u32 = 48;
/// Mask selecting the local origin index of a span id.
pub const SPAN_LOCAL_MASK: u64 = (1 << SPAN_DOMAIN_SHIFT) - 1;

impl Default for LineageRecorder {
    fn default() -> Self {
        LineageRecorder::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl LineageRecorder {
    /// A recorder keeping at most `capacity` stage events.
    pub fn with_capacity(capacity: usize) -> LineageRecorder {
        LineageRecorder {
            origins: Vec::new(),
            events: Vec::new(),
            capacity: capacity.max(1),
            dropped: 0,
            span_base: 0,
        }
    }

    /// The configured event capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tag every span id this recorder allocates with `base` (see
    /// [`SPAN_DOMAIN_SHIFT`]). Must be called before any span is born.
    pub fn set_span_base(&mut self, base: u64) {
        debug_assert!(self.origins.is_empty(), "span base set after spans born");
        debug_assert_eq!(
            base & SPAN_LOCAL_MASK,
            0,
            "base must be above the local bits"
        );
        self.span_base = base;
    }

    /// Allocate a span born now at `comp`, recording its `Sent` event.
    /// `payload_len` lands in the Sent event's `aux`.
    pub fn begin_span(
        &mut self,
        time_ns: u64,
        comp: SymbolId,
        meta: Option<PacketizeMeta>,
        payload_len: u32,
    ) -> u64 {
        let span = self.span_base | self.origins.len() as u64;
        self.origins.push(SpanOrigin {
            time_ns,
            comp,
            meta,
        });
        self.record(span, time_ns, comp, Stage::Sent, payload_len);
        span
    }

    /// Record one stage transition (counted, not stored, past the
    /// capacity cap).
    pub fn record(&mut self, span: u64, time_ns: u64, comp: SymbolId, stage: Stage, aux: u32) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(LineageEvent {
            span,
            time_ns,
            comp,
            stage,
            aux,
        });
    }

    /// Spans allocated so far.
    pub fn spans(&self) -> usize {
        self.origins.len()
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.origins.is_empty()
    }

    /// Events discarded past the capacity cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Freeze into an immutable dump for analysis, snapshotting the
    /// shared symbol table so the dump stays self-contained.
    pub fn finish(self, interner: &Interner) -> LineageDump {
        LineageDump {
            origins: self.origins,
            events: self.events,
            components: interner.snapshot(),
            dropped: self.dropped,
        }
    }
}

/// The frozen output of a traced run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LineageDump {
    /// Per-span origin records; the span id is the index.
    pub origins: Vec<SpanOrigin>,
    /// Every stage transition, in emission (= sim time) order.
    pub events: Vec<LineageEvent>,
    /// Component names in [`SymbolId`] order — a snapshot of the
    /// run's shared interner.
    pub components: Vec<String>,
    /// Events discarded past the recorder capacity.
    pub dropped: u64,
}

/// How a span's life ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Media payload reached the playout clock.
    Played,
    /// Delivered to its destination (non-media traffic, or media that
    /// arrived but whose playout never came due inside the run).
    Completed,
    /// Killed by the recorded cause (the first fatal drop).
    Dropped(DropCause),
    /// Still in flight when the run ended.
    Truncated,
}

impl SpanOutcome {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Played => "played",
            SpanOutcome::Completed => "completed",
            SpanOutcome::Dropped(_) => "dropped",
            SpanOutcome::Truncated => "truncated",
        }
    }
}

/// Outcome of one span's events in recorded order: the first `Played`
/// wins, then any `Delivered`, then the first fatal drop.
fn classify<'e>(events: impl Iterator<Item = &'e LineageEvent>) -> SpanOutcome {
    let mut first_fatal = None;
    let mut delivered = false;
    for ev in events {
        match ev.stage {
            Stage::Played => return SpanOutcome::Played,
            Stage::Delivered => delivered = true,
            Stage::Dropped(cause) if cause.fatal() && first_fatal.is_none() => {
                first_fatal = Some(cause);
            }
            _ => {}
        }
    }
    match (delivered, first_fatal) {
        (true, _) => SpanOutcome::Completed,
        (false, Some(cause)) => SpanOutcome::Dropped(cause),
        (false, None) => SpanOutcome::Truncated,
    }
}

/// The order every dump's events are kept in.
fn event_key(ev: &LineageEvent) -> (u64, u64) {
    (ev.time_ns, ev.span)
}

/// Map every element of `v` through `map`, then stable-sort `v` by
/// `key`, in linear time when the mapped elements are nearly sorted.
///
/// One pass maps each element and keeps the greedy non-decreasing run
/// in place at the front, setting the rest (the "late" elements)
/// aside; only those are sorted, and they are merged back from the
/// end. A kept element whose key equals a late one's always came first
/// (anything after the late element that was kept has a strictly
/// greater key), so on ties the kept element goes first and the result
/// equals a stable sort.
fn map_sort_nearly_sorted<T: Copy, K: Ord>(
    v: &mut [T],
    mut map: impl FnMut(T) -> T,
    key: impl Fn(&T) -> K,
) {
    let mut late: Vec<T> = Vec::new();
    let mut kept = 0;
    for i in 0..v.len() {
        let x = map(v[i]);
        if kept > 0 && key(&x) < key(&v[kept - 1]) {
            late.push(x);
        } else {
            v[kept] = x;
            kept += 1;
        }
    }
    late.sort_by_key(&key);
    let (mut i, mut w) = (kept, v.len());
    while let Some(&x) = late.last() {
        w -= 1;
        if i > 0 && key(&v[i - 1]) > key(&x) {
            v[w] = v[i - 1];
            i -= 1;
        } else {
            v[w] = x;
            late.pop();
        }
    }
}

/// Merge event lists that are each in [`event_key`] order into one;
/// ties go to the lower part, so the result equals a stable sort of
/// the parts concatenated in order.
fn merge_sorted_parts(parts: &[Vec<LineageEvent>]) -> Vec<LineageEvent> {
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut heads = vec![0usize; parts.len()];
    while out.len() < total {
        let mut best: Option<(usize, &LineageEvent)> = None;
        for (p, events) in parts.iter().enumerate() {
            if let Some(ev) = events.get(heads[p]) {
                if best.is_none_or(|(_, b)| event_key(ev) < event_key(b)) {
                    best = Some((p, ev));
                }
            }
        }
        let (p, ev) = best.expect("an unmerged event remains");
        out.push(*ev);
        heads[p] += 1;
    }
    out
}

impl LineageDump {
    /// Component name for an interned id.
    pub fn component(&self, id: SymbolId) -> &str {
        self.components
            .get(id.index())
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Fold per-domain dumps into one canonical dump.
    ///
    /// `parts[d]` must come from the recorder whose span base was
    /// `d << SPAN_DOMAIN_SHIFT` (a sequential run is the single part
    /// `d = 0`). Component tables are unioned by name and re-sorted;
    /// origins are renumbered in `(birth time, component name)` order
    /// (ties keep each component's own birth order — a component's
    /// spans are all born in one domain, so this is well defined);
    /// events are remapped onto the new span and component ids and
    /// stably sorted by `(time, span)`. The result is a pure function
    /// of the simulated behaviour, independent of how the topology was
    /// partitioned — which is exactly what lets a sharded run's dump
    /// compare byte-identical against a sequential run's.
    ///
    /// Each part's events are remapped in place. A recorder emits them
    /// almost in canonical order (late `Played` events, stamped with
    /// their earlier playout deadline, and same-instant events of
    /// renumbered spans are the exceptions), so the sort only sorts
    /// those few and merges them back linearly. A single part's event
    /// list becomes the dump's, shrunk to its length; several parts
    /// are merged into one list of exact capacity.
    pub fn merge_domains(parts: Vec<LineageDump>) -> LineageDump {
        // Union the component names, sorted.
        let mut components: Vec<String> = parts
            .iter()
            .flat_map(|p| p.components.iter().cloned())
            .collect();
        components.sort();
        components.dedup();
        let comp_maps: Vec<Vec<u32>> = parts
            .iter()
            .map(|p| {
                p.components
                    .iter()
                    .map(|c| {
                        components
                            .binary_search(c)
                            .expect("component in sorted union") as u32
                    })
                    .collect()
            })
            .collect();

        // Renumber origins canonically. Comparing remapped component
        // ids is comparing names, because `components` is sorted.
        let mut order: Vec<(u64, u32, usize, usize)> = Vec::new();
        for (part, p) in parts.iter().enumerate() {
            for (local, origin) in p.origins.iter().enumerate() {
                order.push((
                    origin.time_ns,
                    comp_maps[part][origin.comp.index()],
                    part,
                    local,
                ));
            }
        }
        map_sort_nearly_sorted(&mut order, |o| o, |&(t, c, part, _)| (t, c, part));
        let mut span_maps: Vec<Vec<u64>> = parts.iter().map(|p| vec![0; p.origins.len()]).collect();
        let mut origins = Vec::with_capacity(order.len());
        for (new_id, &(_, new_comp, part, local)) in order.iter().enumerate() {
            span_maps[part][local] = new_id as u64;
            let mut origin = parts[part].origins[local];
            origin.comp = SymbolId(new_comp);
            origins.push(origin);
        }

        // Remap and canonically order the events. A packet that
        // crossed domains has its later stages recorded by a *different*
        // recorder than the one that allocated its span, so the origin
        // part is decoded from the span id, while the component id is
        // resolved against the recording part's own symbol table.
        let dropped = parts.iter().map(|p| p.dropped).sum();
        let mut part_events: Vec<Vec<LineageEvent>> = parts
            .into_iter()
            .zip(&comp_maps)
            .map(|(p, comp_map)| {
                let mut events = p.events;
                let remap = |mut ev: LineageEvent| {
                    let origin_part = (ev.span >> SPAN_DOMAIN_SHIFT) as usize;
                    let local = (ev.span & SPAN_LOCAL_MASK) as usize;
                    ev.span = span_maps[origin_part][local];
                    ev.comp = SymbolId(comp_map[ev.comp.index()]);
                    ev
                };
                map_sort_nearly_sorted(&mut events, remap, event_key);
                events
            })
            .collect();
        let events = if part_events.len() == 1 {
            let mut events = part_events.pop().expect("one part");
            events.shrink_to_fit();
            events
        } else {
            merge_sorted_parts(&part_events)
        };

        LineageDump {
            origins,
            events,
            components,
            dropped,
        }
    }

    /// Group the events by span; see [`SpanView`].
    pub fn span_view(&self) -> SpanView<'_> {
        SpanView::new(self)
    }

    /// Check the lifecycle invariants; see [`SpanView::validate`].
    pub fn validate(&self) -> Result<(), String> {
        self.span_view().validate()
    }

    /// Count spans per terminal outcome; see
    /// [`SpanView::outcome_counts`].
    pub fn outcome_counts(&self) -> (u64, u64, u64, u64) {
        self.span_view().outcome_counts()
    }
}

/// Every span's events, grouped: a compressed-sparse-row index over a
/// dump, built by one counting sort and no per-span allocation. Span
/// `s`'s events are `dump.events[order[i]]` for `i` in
/// `starts[s]..starts[s + 1]`, in recorded (= sim time) order. Events
/// naming a span the dump has no origin for belong to no span.
///
/// Build it once per dump and read every per-span analysis from it:
/// [`SpanView::validate`], [`SpanView::outcome_counts`],
/// [`SpanView::stage_samples`], [`SpanView::spans`].
#[derive(Debug, Clone)]
pub struct SpanView<'a> {
    dump: &'a LineageDump,
    starts: Vec<u32>,
    order: Vec<u32>,
}

/// One span's life, borrowed from a [`SpanView`].
#[derive(Debug, Clone, Copy)]
pub struct SpanTimeline<'a> {
    /// The span id.
    pub span: u64,
    events: &'a [LineageEvent],
    order: &'a [u32],
}

impl<'a> SpanTimeline<'a> {
    /// This span's events, in recorded (= sim time) order.
    pub fn events(&self) -> impl Iterator<Item = &'a LineageEvent> + 'a {
        let events = self.events;
        self.order.iter().map(move |&i| &events[i as usize])
    }

    /// Terminal classification: the first `Played` wins, then any
    /// `Delivered`, then the first fatal drop, else truncated.
    pub fn outcome(&self) -> SpanOutcome {
        classify(self.events())
    }

    /// Time of the first event matching `pred`, if any.
    pub fn first_time(&self, pred: impl Fn(Stage) -> bool) -> Option<u64> {
        self.events().find(|e| pred(e.stage)).map(|e| e.time_ns)
    }

    /// Hops taken: the number of link arrivals recorded.
    pub fn hops(&self) -> usize {
        self.events().filter(|e| e.stage == Stage::Arrived).count()
    }
}

impl<'a> SpanView<'a> {
    /// Group `dump`'s events by span.
    pub fn new(dump: &'a LineageDump) -> SpanView<'a> {
        let spans = dump.origins.len();
        assert!(
            dump.events.len() <= u32::MAX as usize,
            "span view indexes events with u32"
        );
        let mut starts = vec![0u32; spans + 1];
        for ev in &dump.events {
            if ev.span < spans as u64 {
                starts[ev.span as usize + 1] += 1;
            }
        }
        for s in 0..spans {
            starts[s + 1] += starts[s];
        }
        let mut next = starts[..spans].to_vec();
        let mut order = vec![0u32; starts[spans] as usize];
        for (i, ev) in dump.events.iter().enumerate() {
            if ev.span < spans as u64 {
                let slot = &mut next[ev.span as usize];
                order[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        SpanView {
            dump,
            starts,
            order,
        }
    }

    /// Number of spans (the dump's origin count).
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// True when the dump has no span.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Span `span`'s timeline. Panics past [`SpanView::len`].
    pub fn span(&self, span: usize) -> SpanTimeline<'_> {
        let range = self.starts[span] as usize..self.starts[span + 1] as usize;
        SpanTimeline {
            span: span as u64,
            events: &self.dump.events,
            order: &self.order[range],
        }
    }

    /// Every span's timeline, in span-id order.
    pub fn spans(&self) -> impl Iterator<Item = SpanTimeline<'_>> + '_ {
        (0..self.len()).map(move |s| self.span(s))
    }

    /// Check the lifecycle invariants the `turb-check` property relies
    /// on: every event references a real span and component, per-span
    /// event times are monotone (and never precede the span's birth),
    /// each span begins with `Sent`, and it is buffered and played at
    /// most once, never played unbuffered.
    pub fn validate(&self) -> Result<(), String> {
        let dump = self.dump;
        for ev in &dump.events {
            if ev.span as usize >= dump.origins.len() {
                return Err(format!("event references unknown span {}", ev.span));
            }
            if ev.comp.index() >= dump.components.len() {
                return Err(format!("event references unknown component {}", ev.comp.0));
            }
        }
        for origin in &dump.origins {
            if origin.comp.index() >= dump.components.len() {
                return Err(format!(
                    "origin references unknown component {}",
                    origin.comp.0
                ));
            }
        }
        for tl in self.spans() {
            let mut prev = dump.origins[tl.span as usize].time_ns;
            let mut buffered = 0u64;
            let mut played = 0u64;
            for ev in tl.events() {
                if ev.time_ns < prev {
                    return Err(format!(
                        "span {} time went backwards at {:?}: {} < {}",
                        tl.span, ev.stage, ev.time_ns, prev
                    ));
                }
                prev = ev.time_ns;
                match ev.stage {
                    Stage::Buffered => buffered += 1,
                    Stage::Played => played += 1,
                    _ => {}
                }
            }
            if buffered > 1 || played > 1 {
                return Err(format!(
                    "span {} buffered {buffered}x / played {played}x (at most once each)",
                    tl.span
                ));
            }
            if played > buffered {
                return Err(format!("span {} played without buffering", tl.span));
            }
            match tl.events().next().map(|e| e.stage) {
                Some(Stage::Sent) => {}
                first => {
                    return Err(format!(
                        "span {} does not begin with Sent (first: {first:?})",
                        tl.span
                    ));
                }
            }
        }
        Ok(())
    }

    /// Count spans per terminal outcome:
    /// `(played, completed, dropped, truncated)`.
    pub fn outcome_counts(&self) -> (u64, u64, u64, u64) {
        let (mut p, mut c, mut d, mut t) = (0, 0, 0, 0);
        for tl in self.spans() {
            match tl.outcome() {
                SpanOutcome::Played => p += 1,
                SpanOutcome::Completed => c += 1,
                SpanOutcome::Dropped(_) => d += 1,
                SpanOutcome::Truncated => t += 1,
            }
        }
        (p, c, d, t)
    }

    /// Per-stage latency samples; see [`stage_samples`]. Hops are
    /// paired FIFO per (span, fragment offset), so interleaved
    /// fragments of one datagram measure their own link traversals.
    pub fn stage_samples(&self) -> StageSamples {
        let mut samples = StageSamples::default();
        // (fragment offset, link_tx time) not yet matched by an
        // arrival, oldest first — a handful per span.
        let mut pending: Vec<(u32, u64)> = Vec::new();
        for tl in self.spans() {
            pending.clear();
            let mut fragged: Option<u64> = None;
            let mut buffered: Option<u64> = None;
            let mut delivered: Option<u64> = None;
            for ev in tl.events() {
                match ev.stage {
                    Stage::LinkTx => pending.push((ev.aux, ev.time_ns)),
                    Stage::Arrived => {
                        if let Some(i) = pending.iter().position(|&(off, _)| off == ev.aux) {
                            let (_, sent) = pending.remove(i);
                            samples.hop_ns.push((ev.time_ns - sent) as f64);
                        }
                    }
                    Stage::Fragmented => {
                        fragged.get_or_insert(ev.time_ns);
                    }
                    Stage::Reassembled => {
                        if let Some(t0) = fragged {
                            samples.reasm_ns.push((ev.time_ns - t0) as f64);
                        }
                    }
                    Stage::Buffered => {
                        buffered.get_or_insert(ev.time_ns);
                    }
                    Stage::Played => {
                        if let Some(t0) = buffered {
                            samples.residency_ns.push((ev.time_ns - t0) as f64);
                        }
                    }
                    Stage::Delivered => {
                        delivered.get_or_insert(ev.time_ns);
                    }
                    _ => {}
                }
            }
            if let Some(end) = buffered.or(delivered) {
                let born = self.dump.origins[tl.span as usize].time_ns;
                samples.e2e_ns.push((end - born) as f64);
            }
        }
        samples
    }
}

/// Raw latency samples per derived stage metric, nanoseconds, in
/// deterministic (span, event) order — ready for CDF rendering.
#[derive(Debug, Clone, Default)]
pub struct StageSamples {
    /// Link transmit offer → arrival, one sample per hop per fragment.
    pub hop_ns: Vec<f64>,
    /// Datagram fragmentation → successful reassembly.
    pub reasm_ns: Vec<f64>,
    /// Playback buffer admission → playout deadline.
    pub residency_ns: Vec<f64>,
    /// Span birth → buffer admission (media) or delivery (other).
    pub e2e_ns: Vec<f64>,
}

/// Extract per-stage latency samples from a dump. Builds a
/// [`SpanView`]; callers that already hold one use
/// [`SpanView::stage_samples`].
pub fn stage_samples(dump: &LineageDump) -> StageSamples {
    dump.span_view().stage_samples()
}

/// Build the per-stage latency sketches into a fresh
/// [`MetricsRegistry`] (kept separate from the run's shared registry
/// so the lineage-on/off byte-identity of run metrics holds). Each
/// metric is a mergeable log-bucket sketch, so corpus-wide stage
/// latencies combine exactly.
pub fn stage_histograms(dump: &LineageDump) -> MetricsRegistry {
    let samples = stage_samples(dump);
    let mut reg = MetricsRegistry::new();
    for (name, values) in [
        ("lineage_hop_ns", &samples.hop_ns),
        ("lineage_reassembly_ns", &samples.reasm_ns),
        ("lineage_buffer_residency_ns", &samples.residency_ns),
        ("lineage_end_to_end_ns", &samples.e2e_ns),
    ] {
        for v in values {
            reg.log_observe(name, "lineage", *v as u64);
        }
    }
    reg
}

/// The drop post-mortem: every `Dropped` event attributed to its
/// cause and component.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostMortem {
    /// `(cause, component id, count)`, sorted by cause order then
    /// component id.
    pub entries: Vec<(DropCause, SymbolId, u64)>,
}

impl PostMortem {
    /// Total dropped wire packets across all causes.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|(_, _, n)| n).sum()
    }

    /// Total for one cause across components.
    pub fn cause_total(&self, cause: DropCause) -> u64 {
        self.entries
            .iter()
            .filter(|(c, _, _)| *c == cause)
            .map(|(_, _, n)| n)
            .sum()
    }

    /// Fold another post-mortem into this one (corpus aggregation by
    /// cause; component attribution is per-run, so components fold by
    /// id only when the topologies agree — the corpus topology does).
    pub fn absorb(&mut self, other: &PostMortem) {
        for (cause, comp, n) in &other.entries {
            match self
                .entries
                .iter_mut()
                .find(|(c, k, _)| c == cause && k == comp)
            {
                Some((_, _, total)) => *total += n,
                None => self.entries.push((*cause, *comp, *n)),
            }
        }
        self.entries.sort_by_key(|(c, k, _)| (*c, *k));
    }
}

/// Attribute every `Dropped` event in the dump.
pub fn post_mortem(dump: &LineageDump) -> PostMortem {
    let mut entries: Vec<(DropCause, SymbolId, u64)> = Vec::new();
    for ev in &dump.events {
        if let Stage::Dropped(cause) = ev.stage {
            match entries
                .iter_mut()
                .find(|(c, comp, _)| *c == cause && *comp == ev.comp)
            {
                Some((_, _, n)) => *n += 1,
                None => entries.push((cause, ev.comp, 1)),
            }
        }
    }
    entries.sort_by_key(|(c, k, _)| (*c, *k));
    PostMortem { entries }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds rendered as microseconds with fixed three decimals —
/// pure integer arithmetic, so output is deterministic.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Export the dump in Chrome trace-event JSON ("X" complete events
/// per stage segment on one track per span, instants for terminal
/// events), loadable in Perfetto. Output ordering is a pure function
/// of the dump, so same-seed runs export byte-identical traces.
pub fn to_chrome_trace(dump: &LineageDump) -> String {
    let mut out = String::with_capacity(dump.events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"turbulence packet lineage\"}}",
    );
    for tl in dump.span_view().spans() {
        let meta = dump.origins[tl.span as usize]
            .meta
            .map(|m| {
                format!(
                    ",\"player\":{},\"seq\":{},\"media_ms\":{}",
                    m.player, m.sequence, m.media_time_ms
                )
            })
            .unwrap_or_default();
        let outcome = tl.outcome().label();
        let mut events = tl.events().enumerate().peekable();
        while let Some((i, ev)) = events.next() {
            let comp = json_escape(dump.component(ev.comp));
            let args = format!(
                "{{\"comp\":\"{}\",\"aux\":{}{}}}",
                comp,
                ev.aux,
                if i == 0 { meta.as_str() } else { "" }
            );
            let name = match ev.stage {
                Stage::Dropped(cause) => format!("dropped:{}", cause.label()),
                stage => stage.label().to_string(),
            };
            match events.peek() {
                Some((_, next)) => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"{}\",\"args\":{}}}",
                        tl.span + 1,
                        ts_us(ev.time_ns),
                        ts_us(next.time_ns - ev.time_ns),
                        name,
                        outcome,
                        args,
                    );
                }
                None => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"{}\",\"cat\":\"{}\",\"args\":{}}}",
                        tl.span + 1,
                        ts_us(ev.time_ns),
                        name,
                        outcome,
                        args,
                    );
                }
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn media_meta(seq: u32) -> PacketizeMeta {
        PacketizeMeta {
            player: 1,
            sequence: seq,
            media_time_ms: seq * 100,
        }
    }

    /// One played media span, one span dropped in a queue, one span
    /// truncated mid-flight.
    fn sample_dump() -> LineageDump {
        let mut interner = Interner::new();
        let mut rec = LineageRecorder::default();
        let node = interner.intern("node:server");
        let link = interner.intern("link:0");
        let client = interner.intern("node:client");

        let played = rec.begin_span(1_000, node, Some(media_meta(0)), 1400);
        rec.record(played, 1_000, link, Stage::LinkTx, 0);
        rec.record(played, 2_500, client, Stage::Arrived, 0);
        rec.record(played, 2_500, client, Stage::Sniffed, 0);
        rec.record(played, 2_500, client, Stage::Delivered, 7000);
        rec.record(played, 2_500, client, Stage::Buffered, 0);
        rec.record(played, 9_000, client, Stage::Played, 0);

        let dropped = rec.begin_span(2_000, node, Some(media_meta(1)), 1400);
        rec.record(dropped, 2_000, link, Stage::LinkTx, 0);
        rec.record(
            dropped,
            2_000,
            link,
            Stage::Dropped(DropCause::QueueFull),
            0,
        );

        let truncated = rec.begin_span(3_000, node, None, 64);
        rec.record(truncated, 3_000, link, Stage::LinkTx, 0);
        rec.finish(&interner)
    }

    #[test]
    fn reconstruction_classifies_outcomes() {
        let dump = sample_dump();
        let view = dump.span_view();
        assert_eq!(view.len(), 3);
        assert_eq!(view.span(0).outcome(), SpanOutcome::Played);
        assert_eq!(
            view.span(1).outcome(),
            SpanOutcome::Dropped(DropCause::QueueFull)
        );
        assert_eq!(view.span(2).outcome(), SpanOutcome::Truncated);
        assert_eq!(view.span(0).hops(), 1);
        assert_eq!(view.span(0).events().count(), 7);
        assert_eq!(dump.outcome_counts(), (1, 0, 1, 1));
        dump.validate().expect("sample dump is well-formed");
    }

    #[test]
    fn delivery_without_playout_is_completed() {
        let mut interner = Interner::new();
        let mut rec = LineageRecorder::default();
        let node = interner.intern("node:a");
        let span = rec.begin_span(0, node, None, 8);
        rec.record(span, 10, node, Stage::Delivered, 554);
        let dump = rec.finish(&interner);
        assert_eq!(dump.span_view().span(0).outcome(), SpanOutcome::Completed);
    }

    #[test]
    fn non_fatal_drops_do_not_doom_a_span() {
        let mut interner = Interner::new();
        let mut rec = LineageRecorder::default();
        let node = interner.intern("node:a");
        let span = rec.begin_span(0, node, None, 8);
        rec.record(span, 5, node, Stage::Dropped(DropCause::ReasmDuplicate), 0);
        rec.record(span, 9, node, Stage::Delivered, 7000);
        let dump = rec.finish(&interner);
        assert_eq!(dump.span_view().span(0).outcome(), SpanOutcome::Completed);
        // The duplicate still shows up in the post-mortem.
        assert_eq!(post_mortem(&dump).cause_total(DropCause::ReasmDuplicate), 1);
    }

    #[test]
    fn validate_catches_time_regression() {
        let mut interner = Interner::new();
        let mut rec = LineageRecorder::default();
        let node = interner.intern("node:a");
        let span = rec.begin_span(100, node, None, 8);
        rec.record(span, 50, node, Stage::Delivered, 0);
        assert!(rec.finish(&interner).validate().is_err());
    }

    #[test]
    fn validate_requires_sent_first() {
        let dump = LineageDump {
            origins: vec![SpanOrigin {
                time_ns: 0,
                comp: SymbolId(0),
                meta: None,
            }],
            events: vec![LineageEvent {
                span: 0,
                time_ns: 1,
                comp: SymbolId(0),
                stage: Stage::Delivered,
                aux: 0,
            }],
            components: vec!["node:a".to_string()],
            dropped: 0,
        };
        assert!(dump.validate().unwrap_err().contains("Sent"));
    }

    #[test]
    fn capacity_counts_overflow_instead_of_recording() {
        let mut interner = Interner::new();
        let mut rec = LineageRecorder::with_capacity(2);
        let node = interner.intern("node:a");
        let span = rec.begin_span(0, node, None, 8); // 1 event (Sent)
        rec.record(span, 1, node, Stage::LinkTx, 0); // 2nd
        rec.record(span, 2, node, Stage::Arrived, 0); // over
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn stage_samples_measure_hops_and_residency() {
        let samples = stage_samples(&sample_dump());
        assert_eq!(samples.hop_ns, vec![1_500.0]);
        assert_eq!(samples.residency_ns, vec![6_500.0]);
        assert_eq!(samples.e2e_ns, vec![1_500.0]);
        assert!(samples.reasm_ns.is_empty());
    }

    #[test]
    fn interleaved_fragments_pair_by_offset() {
        let mut interner = Interner::new();
        let mut rec = LineageRecorder::default();
        let node = interner.intern("node:a");
        let link = interner.intern("link:0");
        let span = rec.begin_span(0, node, None, 3000);
        rec.record(span, 0, node, Stage::Fragmented, 2);
        rec.record(span, 0, link, Stage::LinkTx, 0);
        rec.record(span, 0, link, Stage::LinkTx, 185);
        rec.record(span, 10, node, Stage::Arrived, 0);
        rec.record(span, 25, node, Stage::Arrived, 185);
        rec.record(span, 25, node, Stage::Reassembled, 0);
        let samples = stage_samples(&rec.finish(&interner));
        assert_eq!(samples.hop_ns, vec![10.0, 25.0]);
        assert_eq!(samples.reasm_ns, vec![25.0]);
    }

    #[test]
    fn histograms_land_in_a_registry() {
        let reg = stage_histograms(&sample_dump());
        let hist = reg.log_histogram("lineage_hop_ns", "lineage").unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.min(), Some(1_500));
    }

    #[test]
    fn post_mortem_attributes_causes_to_components() {
        let dump = sample_dump();
        let pm = post_mortem(&dump);
        assert_eq!(pm.total(), 1);
        assert_eq!(pm.entries, vec![(DropCause::QueueFull, SymbolId(1), 1)]);
        let mut agg = PostMortem::default();
        agg.absorb(&pm);
        agg.absorb(&pm);
        assert_eq!(agg.cause_total(DropCause::QueueFull), 2);
    }

    #[test]
    fn chrome_trace_is_deterministic_and_structured() {
        let dump = sample_dump();
        let a = to_chrome_trace(&dump);
        let b = to_chrome_trace(&dump);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(a.trim_end().ends_with("]}"));
        assert!(a.contains("\"name\":\"dropped:queue_full\""));
        assert!(a.contains("\"ts\":1.000"));
        assert!(a.contains("\"media_ms\":0"));
        // One line per event plus the header, metadata, and closer.
        assert_eq!(a.lines().count(), 3 + dump.events.len());
    }

    #[test]
    fn merge_domains_canonicalizes_a_single_part_idempotently() {
        let dump = sample_dump();
        let canon = LineageDump::merge_domains(vec![dump.clone()]);
        canon.validate().expect("canonical dump is well-formed");
        // Same behaviour, canonical ids.
        assert_eq!(canon.outcome_counts(), dump.outcome_counts());
        assert_eq!(canon.events.len(), dump.events.len());
        let mut names = canon.components.clone();
        names.sort();
        assert_eq!(names, canon.components, "components come out sorted");
        // Canonicalizing a canonical dump changes nothing.
        assert_eq!(LineageDump::merge_domains(vec![canon.clone()]), canon);
    }

    #[test]
    fn merge_domains_matches_the_sequential_recorder() {
        // A two-domain run: span 0 is born at node:a (domain 0) and
        // crosses the cut link to node:b (domain 1); span 1 is born at
        // node:b. The per-domain dumps merged must equal the
        // canonicalized dump of one sequential recorder that saw the
        // same history.
        let mut gi = Interner::new();
        let (ga, gl, gb) = (
            gi.intern("node:a"),
            gi.intern("link:01"),
            gi.intern("node:b"),
        );
        let mut seq = LineageRecorder::default();
        let s0 = seq.begin_span(0, ga, None, 100);
        seq.record(s0, 0, gl, Stage::LinkTx, 0);
        let s1 = seq.begin_span(5, gb, None, 8);
        seq.record(s0, 10, gb, Stage::Arrived, 0);
        seq.record(s0, 10, gb, Stage::Delivered, 554);
        let _ = s1;
        let sequential = LineageDump::merge_domains(vec![seq.finish(&gi)]);

        // Domain 0 owns node:a and the cut link's transmit side.
        let mut i0 = Interner::new();
        let (l0, a0) = (i0.intern("link:01"), i0.intern("node:a"));
        let mut d0 = LineageRecorder::default();
        d0.set_span_base(0);
        let d0s0 = d0.begin_span(0, a0, None, 100);
        d0.record(d0s0, 0, l0, Stage::LinkTx, 0);

        // Domain 1 owns node:b and records span 0's later stages
        // under the foreign span id it arrived with.
        let mut i1 = Interner::new();
        let b1 = i1.intern("node:b");
        let mut d1 = LineageRecorder::default();
        d1.set_span_base(1u64 << SPAN_DOMAIN_SHIFT);
        let _d1s0 = d1.begin_span(5, b1, None, 8);
        d1.record(d0s0, 10, b1, Stage::Arrived, 0);
        d1.record(d0s0, 10, b1, Stage::Delivered, 554);

        let merged = LineageDump::merge_domains(vec![d0.finish(&i0), d1.finish(&i1)]);
        assert_eq!(merged, sequential);
        merged.validate().expect("merged dump is well-formed");
    }

    #[test]
    fn every_cause_has_a_distinct_counter() {
        let mut counters: Vec<_> = DropCause::ALL.iter().map(|c| c.counter()).collect();
        counters.sort_unstable();
        counters.dedup();
        assert_eq!(counters.len(), DropCause::ALL.len());
    }
}
