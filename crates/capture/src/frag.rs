//! Ethereal-style fragment-group analysis (§3.C, Figures 4, 5 and 9).
//!
//! "Further investigation of the packet types using Ethereal reveals
//! that each packet group is composed of one UDP packet and the
//! remaining packets are IP fragments." In Ethereal's display, the
//! frame that completes reassembly is shown as UDP and all other
//! frames of the datagram show as `Fragmented IP protocol` — so a
//! datagram split into *n* frames contributes *n − 1* "IP fragment"
//! packets. That convention is what makes a 3-fragment MediaPlayer
//! group read as "66 % of packets are IP fragments".

use crate::record::PacketRecord;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::ops::Range;
use turb_wire::media::PlayerId;

/// The header of one datagram's worth of captured frames (usually one
/// MediaPlayer application frame). The frames themselves live in the
/// owning [`FragmentGroups`], read through
/// [`FragmentGroups::frame_lens`] and [`FragmentGroups::frame_times`].
#[derive(Debug, Clone)]
pub struct Group {
    /// Arrival time of the group's first frame, seconds.
    pub first_time: f64,
    /// Arrival time of the group's last frame, seconds.
    pub last_time: f64,
    /// Number of frames in the group (1 = unfragmented).
    pub packets: u32,
    /// Total wire bytes across the group.
    pub wire_bytes: u32,
    /// The player that produced the datagram, when a media header was
    /// visible on any of its frames (separates the two simultaneous
    /// streams of the paper's methodology).
    pub player: Option<PlayerId>,
    /// Whether the datagram was flagged as buffering-phase traffic.
    pub buffering: bool,
    /// Index of the group's first frame in the owner's frame arrays.
    start: u32,
    /// Whether the frames reassemble, decided once at build time.
    complete: bool,
}

impl Group {
    /// Would this group reassemble? True iff a final fragment arrived
    /// and the payload bytes cover `[0, end)` without holes — the same
    /// test a host's reassembler applies, so incomplete groups here
    /// correspond one-to-one with reassembly timeout discards.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    fn frames(&self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.packets as usize
    }
}

/// Aggregate fragmentation statistics for a capture slice — the data
/// behind Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FragmentationStats {
    /// Total frames observed.
    pub total_packets: usize,
    /// Frames Ethereal would display as IP fragments
    /// (group size − 1 per multi-frame group).
    pub fragment_packets: usize,
    /// Number of datagram groups.
    pub groups: usize,
    /// Groups with more than one frame.
    pub fragmented_groups: usize,
}

impl FragmentationStats {
    /// Fragment share of all frames: Figure 5's y-axis.
    pub fn fragment_fraction(&self) -> f64 {
        if self.total_packets == 0 {
            0.0
        } else {
            self.fragment_packets as f64 / self.total_packets as f64
        }
    }
}

/// A capture slice grouped into datagrams.
///
/// Flat layout: one compact header per group, plus every frame's wire
/// length and arrival time in two arrays shared by all groups. Each
/// group's frames are contiguous there and in arrival order.
#[derive(Debug, Clone, Default)]
pub struct FragmentGroups {
    groups: Vec<Group>,
    frame_lens: Vec<u32>,
    frame_times: Vec<f64>,
}

impl FragmentGroups {
    /// Group records (already filtered to the stream of interest) by
    /// datagram. Records of the same datagram need not be adjacent.
    pub fn build<'a>(records: impl IntoIterator<Item = &'a PacketRecord>) -> FragmentGroups {
        let [all] = build_parts(records, |_| Some(0));
        all
    }

    /// The groups, in order of first appearance.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Wire length of each of `group`'s frames, in arrival order.
    /// `group` must be one of this view's [`groups`](Self::groups).
    pub fn frame_lens(&self, group: &Group) -> &[u32] {
        &self.frame_lens[group.frames()]
    }

    /// Arrival time (seconds) of each of `group`'s frames, parallel to
    /// [`frame_lens`](Self::frame_lens).
    pub fn frame_times(&self, group: &Group) -> &[f64] {
        &self.frame_times[group.frames()]
    }

    /// Aggregate statistics (Figure 5).
    pub fn stats(&self) -> FragmentationStats {
        let mut s = FragmentationStats {
            groups: self.groups.len(),
            ..Default::default()
        };
        for g in &self.groups {
            let packets = g.packets as usize;
            s.total_packets += packets;
            if packets > 1 {
                s.fragment_packets += packets - 1;
                s.fragmented_groups += 1;
            }
        }
        s
    }

    /// Groups that would NOT reassemble (missing or holed fragments) —
    /// the sniffer-side mirror of the hosts' reassembly timeout
    /// discards.
    pub fn incomplete_groups(&self) -> usize {
        self.groups.iter().filter(|g| !g.complete).count()
    }

    /// First-frame arrival times per group, for interarrival analysis
    /// with fragment noise removed: "we consider only the first UDP
    /// packet in each packet group" (§3.E, Figure 9).
    pub fn group_leader_times(&self) -> Vec<f64> {
        self.groups.iter().map(|g| g.first_time).collect()
    }

    /// Interarrival gaps between group leaders.
    pub fn group_interarrivals(&self) -> Vec<f64> {
        self.groups
            .windows(2)
            .map(|w| w[1].first_time - w[0].first_time)
            .collect()
    }
}

/// Both players' fragment groups of one stream, split by the media
/// headers their frames carry.
#[derive(Debug, Clone, Default)]
pub struct PlayerGroups {
    real: FragmentGroups,
    wmp: FragmentGroups,
}

impl PlayerGroups {
    /// Group records (already filtered to the stream of interest) by
    /// datagram in one pass, and keep each player's groups apart.
    /// Groups with no visible media header belong to neither player.
    pub fn build<'a>(records: impl IntoIterator<Item = &'a PacketRecord>) -> PlayerGroups {
        let [real, wmp] = build_parts(records, |g| match g.player? {
            PlayerId::RealPlayer => Some(0),
            PlayerId::MediaPlayer => Some(1),
        });
        PlayerGroups { real, wmp }
    }

    /// One player's groups, in order of first appearance.
    pub fn player(&self, player: PlayerId) -> &FragmentGroups {
        match player {
            PlayerId::RealPlayer => &self.real,
            PlayerId::MediaPlayer => &self.wmp,
        }
    }
}

/// One frame's fragment extent: (payload offset, payload length,
/// more-fragments flag).
type Extent = (usize, usize, bool);

/// Group `records` by datagram, then lay out the groups `part_of`
/// assigns to part `i` (in order of first appearance) as the `i`th
/// flat view. Groups assigned to no part are dropped.
fn build_parts<'a, const N: usize>(
    records: impl IntoIterator<Item = &'a PacketRecord>,
    part_of: impl Fn(&Group) -> Option<usize>,
) -> [FragmentGroups; N] {
    // Pass 1: the group headers, and which group each frame joins.
    let mut index: HashMap<(Ipv4Addr, Ipv4Addr, u8, u16), usize> = HashMap::new();
    let mut headers: Vec<Group> = Vec::new();
    let mut frames: Vec<(usize, &PacketRecord)> = Vec::new();
    for r in records {
        let t = r.time_secs();
        let g = *index.entry(r.packet.datagram_key()).or_insert_with(|| {
            headers.push(Group {
                first_time: t,
                last_time: t,
                packets: 0,
                wire_bytes: 0,
                player: None,
                buffering: false,
                start: 0,
                complete: false,
            });
            headers.len() - 1
        });
        let h = &mut headers[g];
        h.packets += 1;
        h.wire_bytes = u32::try_from(r.wire_len)
            .ok()
            .and_then(|len| h.wire_bytes.checked_add(len))
            .expect("a datagram's frames total under 4 GiB");
        h.first_time = h.first_time.min(t);
        h.last_time = h.last_time.max(t);
        if h.player.is_none() {
            h.player = r.media.map(|m| m.player);
        }
        h.buffering |= r.media.is_some_and(|m| m.buffering);
        frames.push((g, r));
    }

    // Give every kept group a contiguous frame range in its part, and
    // size each part's arrays exactly.
    let assigned: Vec<Option<usize>> = headers.iter().map(&part_of).collect();
    let mut parts: [FragmentGroups; N] = std::array::from_fn(|p| FragmentGroups {
        groups: Vec::with_capacity(assigned.iter().filter(|&&a| a == Some(p)).count()),
        ..FragmentGroups::default()
    });
    let mut cursor: Vec<Option<(usize, usize)>> = Vec::with_capacity(headers.len());
    let mut filled = [0usize; N];
    for (mut h, p) in headers.into_iter().zip(assigned) {
        cursor.push(p.map(|p| {
            let start = filled[p];
            filled[p] += h.packets as usize;
            h.start = u32::try_from(start).expect("a view holds under 2^32 frames");
            parts[p].groups.push(h);
            (p, start)
        }));
    }
    for (part, &n) in parts.iter_mut().zip(&filled) {
        part.frame_lens = vec![0; n];
        part.frame_times = vec![0.0; n];
    }

    // Pass 2: drop each frame into its group's next slot, which keeps
    // a group's frames in arrival order.
    let mut extents: [Vec<Extent>; N] = std::array::from_fn(|p| vec![(0, 0, false); filled[p]]);
    for (g, r) in frames {
        let Some((p, slot)) = cursor[g].as_mut() else {
            continue;
        };
        let part = &mut parts[*p];
        part.frame_lens[*slot] =
            u32::try_from(r.wire_len).expect("checked when the header summed it");
        part.frame_times[*slot] = r.time_secs();
        extents[*p][*slot] = (
            r.packet.fragment_offset_bytes(),
            r.packet.payload.len(),
            r.packet.more_fragments,
        );
        *slot += 1;
    }

    for (part, extents) in parts.iter_mut().zip(&mut extents) {
        for g in &mut part.groups {
            g.complete = reassembles(&mut extents[g.frames()]);
        }
    }
    parts
}

/// The reassembler's test over one group's extents, given in arrival
/// order: a final fragment arrived and the payload bytes cover
/// `[0, end)` without holes. Sorts `extents` in place.
fn reassembles(extents: &mut [Extent]) -> bool {
    let Some(end) = extents
        .iter()
        .find(|(_, _, more)| !more)
        .map(|(off, len, _)| off + len)
    else {
        return false;
    };
    extents.sort_unstable();
    let mut covered = 0usize;
    for &(off, len, _) in extents.iter() {
        if off > covered {
            return false; // hole
        }
        covered = covered.max(off + len);
    }
    covered >= end
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use turb_netsim::{Direction, SimTime};
    use turb_wire::frag::fragment;
    use turb_wire::ipv4::{IpProtocol, Ipv4Packet};

    const SRC: Ipv4Addr = Ipv4Addr::new(204, 71, 0, 33);
    const DST: Ipv4Addr = Ipv4Addr::new(130, 215, 36, 10);

    fn records_for(payloads: &[usize], spacing_ms: u64) -> Vec<PacketRecord> {
        let mut out = Vec::new();
        let mut t = 0u64;
        for (i, &len) in payloads.iter().enumerate() {
            let p = Ipv4Packet::new(
                SRC,
                DST,
                IpProtocol::Udp,
                i as u16,
                Bytes::from(vec![0u8; len]),
            );
            for f in fragment(p, 1500).unwrap() {
                out.push(PacketRecord::dissect(
                    SimTime(t * 1_000_000),
                    Direction::Rx,
                    &f,
                ));
                t += 1; // fragments 1 ms apart
            }
            t += spacing_ms;
        }
        out
    }

    #[test]
    fn three_fragment_groups_give_the_papers_66_percent() {
        // ~3.8 KB application frames, like a 300 Kbit/s MediaPlayer clip.
        let records = records_for(&[3848, 3848, 3848, 3848], 100);
        let groups = FragmentGroups::build(records.iter());
        let stats = groups.stats();
        assert_eq!(stats.groups, 4);
        assert_eq!(stats.fragmented_groups, 4);
        assert_eq!(stats.total_packets, 12);
        assert_eq!(stats.fragment_packets, 8);
        assert!((stats.fragment_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unfragmented_traffic_reports_zero() {
        let records = records_for(&[800, 900, 1000], 100);
        let stats = FragmentGroups::build(records.iter()).stats();
        assert_eq!(stats.fragment_packets, 0);
        assert_eq!(stats.fragment_fraction(), 0.0);
        assert_eq!(stats.groups, 3);
    }

    #[test]
    fn group_leaders_strip_fragment_noise_from_interarrivals() {
        let records = records_for(&[3848, 3848, 3848], 100);
        let groups = FragmentGroups::build(records.iter());
        let gaps = groups.group_interarrivals();
        assert_eq!(gaps.len(), 2);
        for gap in &gaps {
            // Group leaders ≈103 ms apart (100 ms spacing + 3 fragment ms).
            assert!((gap - 0.103).abs() < 0.002, "gap = {gap}");
        }
        // Raw interarrivals, by contrast, mix 1 ms and ~100 ms gaps.
        let raw: Vec<f64> = records
            .windows(2)
            .map(|w| w[1].time_secs() - w[0].time_secs())
            .collect();
        assert!(raw.iter().any(|g| *g < 0.002));
    }

    #[test]
    fn frame_lengths_match_the_papers_pattern() {
        let records = records_for(&[3848], 0);
        let groups = FragmentGroups::build(records.iter());
        let g = &groups.groups()[0];
        let lens = groups.frame_lens(g);
        assert_eq!(lens[0], 1514);
        assert_eq!(lens[1], 1514);
        assert!(lens[2] < 1514);
        assert_eq!(g.wire_bytes, lens.iter().sum::<u32>());
    }

    #[test]
    fn out_of_order_fragments_still_group_correctly() {
        let mut records = records_for(&[3848, 3848], 50);
        records.swap(1, 2); // interleave fragments of the two datagrams
        let groups = FragmentGroups::build(records.iter());
        assert_eq!(groups.groups().len(), 2);
        assert!(groups.groups().iter().all(|g| g.packets == 3));
    }

    /// Records `picks` of `records`, in that order.
    fn pick(records: &[PacketRecord], picks: &[usize]) -> Vec<PacketRecord> {
        picks.iter().map(|&i| records[i].clone()).collect()
    }

    #[test]
    fn interleaved_groups_keep_their_frames_in_arrival_order() {
        // Frames 0-2 are datagram 0, frames 3-5 datagram 1.
        let records = pick(&records_for(&[3848, 3848], 50), &[0, 3, 1, 4, 5, 2]);
        let groups = FragmentGroups::build(records.iter());
        assert_eq!(groups.groups().len(), 2);
        for (g, frames) in groups.groups().iter().zip([[0, 2, 5], [1, 3, 4]]) {
            assert!(g.is_complete());
            let times: Vec<f64> = frames.iter().map(|&i| records[i].time_secs()).collect();
            let lens: Vec<u32> = frames.iter().map(|&i| records[i].wire_len as u32).collect();
            assert_eq!(groups.frame_times(g), times);
            assert_eq!(groups.frame_lens(g), lens);
        }
        assert_eq!(groups.incomplete_groups(), 0);
    }

    #[test]
    fn completeness_is_decided_from_the_extents_not_the_order() {
        let whole = records_for(&[3848], 0);
        let cases: [(&[usize], bool); 6] = [
            (&[0, 1, 2], true),    // in order
            (&[2, 1, 0], true),    // reversed: final fragment first
            (&[1, 0, 1, 2], true), // a duplicated fragment
            (&[0, 2], false),      // hole in the middle
            (&[1, 2], false),      // first fragment missing
            (&[0, 1], false),      // final fragment missing
        ];
        for (picks, complete) in cases {
            let groups = FragmentGroups::build(pick(&whole, picks).iter());
            assert_eq!(groups.groups()[0].is_complete(), complete, "{picks:?}");
            assert_eq!(
                groups.incomplete_groups(),
                usize::from(!complete),
                "{picks:?}"
            );
        }
        // Four fragments, the third lost: three frames, still holed.
        let four = FragmentGroups::build(pick(&records_for(&[5000], 0), &[0, 1, 3]).iter());
        assert_eq!(four.groups()[0].packets, 3);
        assert!(!four.groups()[0].is_complete());
        // Mixed in one capture: datagram 1 loses its final fragment,
        // datagram 2 its middle one; datagrams 0 and 3 stay whole.
        let records = records_for(&[3848, 3848, 3848, 800], 10);
        let kept: Vec<usize> = (0..records.len()).filter(|i| ![5, 7].contains(i)).collect();
        let groups = FragmentGroups::build(pick(&records, &kept).iter());
        let complete: Vec<bool> = groups.groups().iter().map(Group::is_complete).collect();
        assert_eq!(complete, [true, false, false, true]);
        assert_eq!(groups.incomplete_groups(), 2);
    }

    fn media_records(player: PlayerId, id: u16, padding: usize) -> Vec<PacketRecord> {
        use turb_wire::media::MediaHeader;
        use turb_wire::udp::UdpDatagram;
        let header = MediaHeader {
            player,
            sequence: u32::from(id),
            frame_number: u32::from(id),
            media_time_ms: 0,
            buffering: false,
        };
        let udp = UdpDatagram::new(1755, 7000, header.encode_with_padding(padding))
            .encode(SRC, DST)
            .unwrap();
        let packet = Ipv4Packet::new(SRC, DST, IpProtocol::Udp, id, udp);
        fragment(packet, 1500)
            .unwrap()
            .iter()
            .map(|f| PacketRecord::dissect(SimTime(u64::from(id) * 1_000_000), Direction::Rx, f))
            .collect()
    }

    #[test]
    fn player_groups_split_one_pass_by_media_header() {
        let mut records = records_for(&[900], 0); // no media header: neither player
        records.extend(media_records(PlayerId::RealPlayer, 1, 800));
        records.extend(media_records(PlayerId::MediaPlayer, 2, 3800));
        let view = PlayerGroups::build(records.iter());
        let real = view.player(PlayerId::RealPlayer);
        let wmp = view.player(PlayerId::MediaPlayer);
        assert_eq!(real.groups().len(), 1);
        assert_eq!(real.frame_lens(&real.groups()[0]).len(), 1);
        assert_eq!(wmp.groups().len(), 1);
        assert_eq!(wmp.frame_lens(&wmp.groups()[0]).len(), 3);
        assert!(wmp.groups()[0].is_complete());
    }

    #[test]
    fn empty_capture() {
        let groups = FragmentGroups::build(std::iter::empty());
        assert_eq!(groups.stats(), FragmentationStats::default());
        assert!(groups.group_leader_times().is_empty());
    }
}
