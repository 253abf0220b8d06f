//! Exact-match and range queries (paper §IV-A and §IV-B).
//!
//! Both query kinds route the same way: a node that does not own the
//! searched value jumps as far as possible towards it using its sideways
//! routing tables, falling back to a child link and then to an adjacent
//! link.  Exact queries stop at the owner; range queries find the first
//! intersecting node the same way and then sweep along adjacent links until
//! the range is covered — `O(log N + X)` messages for a range spanning `X`
//! nodes.
//!
//! Under unrepaired failures the walk routes around dead peers (§III-D).
//! At k = 1 it gives up at the first bounce off the key's owner: a dead
//! owner keeps its range until repaired, so no live peer could answer, and
//! a failed lookup costs about what a healthy one does instead of a sweep
//! of the live graph.
//!
//! ### Where a hop's first candidate is read
//!
//! A healthy hop needs only its node's first candidate and the next node's
//! termination test.  `plane_first_candidate` reads both straight from the
//! routing plane, without building the node's link view: the farthest
//! occupied `h ± 2^k` on the node's level whose range matches, else the
//! key-side child, else the adjacent and parent links.  Debug builds assert
//! on every hop that it is the head of the full §IV-A list
//! (`walk_candidates`), which the bounce path writes out.

use std::ops::ControlFlow;

use baton_net::{OpScope, Overlay, PeerId};

use crate::error::{BatonError, Result};
use crate::node::BatonNode;
use crate::position::Side;
use crate::range::{Key, KeyRange};
use crate::reports::{RangeSearchReport, SearchReport};
use crate::routing::{Links, RoutingEntry};
use crate::system::BatonSystem;

/// Outcome of routing a query to the node owning a key.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OwnerWalk {
    /// The node whose range contains the key (or the boundary node when the
    /// key lies outside the current domain).
    pub owner: PeerId,
    /// The node whose *store* answers for the key.  Equal to `owner` except
    /// at k > 1 when the true owner is dead: the walk then terminates at an
    /// alive replica holder (`owner`) serving the dead node's retained
    /// slice, and `data` names that dead node.
    pub data: PeerId,
    /// Messages used by the walk.
    pub messages: u64,
    /// Overlay hops taken.
    pub hops: u32,
}

/// One suspended step of the fault-tolerant DFS walk: `peer`, at heap index
/// `h`, has its candidates in `arena[start..end]` of the shared candidate
/// arena and the walk has tried the first `next` of them.  A frame starts
/// with nothing [`Built`] and an empty segment: a healthy walk follows a
/// node's first candidate and never comes back, so the list is only written
/// out once that first candidate has failed.
#[derive(Clone, Copy, Debug)]
struct WalkFrame {
    peer: PeerId,
    h: usize,
    start: usize,
    end: usize,
    next: usize,
    built: Built,
}

/// How much of a frame's candidate list has been written to the arena:
/// nothing yet, the greedy §IV-A list, or that list plus the §III-D fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Built {
    Nothing,
    Greedy,
    Fallback,
}

/// Reusable buffers of the `locate_owner` walk, carried on the
/// [`BatonSystem`] so a healthy walk performs no allocation at all:
///
/// * `visited` is an epoch-stamped slab over the dense peer-id space — the
///   DFS visited set without a hash set or a per-walk clear;
/// * `arena` holds the candidate lists of the stack frames that needed one,
///   contiguously (frames are strictly stack-ordered, so the top frame
///   always owns the arena tail and both the late greedy list and its
///   fallback extension append in place);
/// * `frames` is the DFS stack itself.
#[derive(Clone, Debug, Default)]
pub(crate) struct WalkScratch {
    visited: Vec<u32>,
    epoch: u32,
    arena: Vec<PeerId>,
    frames: Vec<WalkFrame>,
}

impl WalkScratch {
    /// Prepares the scratch for a fresh walk over `total_peers` peer ids.
    fn begin(&mut self, total_peers: usize) {
        self.arena.clear();
        self.frames.clear();
        if self.visited.len() < total_peers {
            self.visited.resize(total_peers, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: old stamps could alias the new epoch, so clear.
            self.visited.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn mark_visited(&mut self, peer: PeerId) {
        let index = peer.raw() as usize;
        if self.visited.len() <= index {
            self.visited.resize(index + 1, 0);
        }
        self.visited[index] = self.epoch;
    }

    #[inline]
    fn is_visited(&self, peer: PeerId) -> bool {
        self.visited.get(peer.raw() as usize) == Some(&self.epoch)
    }
}

/// Pushes `candidate` into the frame segment `arena[start..]` unless it is
/// the owner itself or already present.  Duplicates keep their first (most
/// useful) slot; the segment is small (O(log N)), so deduplication is a
/// linear scan, not a hash set.
#[inline]
fn push_candidate(arena: &mut Vec<PeerId>, start: usize, owner: PeerId, candidate: PeerId) {
    if candidate != owner && !arena[start..].contains(&candidate) {
        arena.push(candidate);
    }
}

/// Enumerates the greedy candidate links of a node managing `range` for
/// forwarding a query towards `key`, most useful first — exactly the §IV-A
/// order: the sideways routing-table entries that do not overshoot the key
/// (farthest first, each followed by its children as the §III-D detour),
/// then the key-side child, adjacent and parent links.  A healthy walk
/// always follows the first candidate, so this order alone reproduces the
/// paper's message counts.  Stops as soon as `visit` breaks.
#[inline]
fn walk_candidates<B>(
    links: &Links<'_>,
    range: KeyRange,
    key: Key,
    mut visit: impl FnMut(PeerId) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let towards_right = key >= range.high();
    let near = if towards_right {
        Side::Right
    } else {
        Side::Left
    };

    // 1. Matching key-side entries, farthest first (§IV-A greedy order).
    for (_, entry) in links.table(near).iter().rev() {
        let matching = if towards_right {
            entry.range.low() <= key
        } else {
            entry.range.high() > key
        };
        if !matching {
            continue;
        }
        visit(entry.peer)?;
        // §III-D detour: if the neighbour is unreachable, its children
        // still lead towards the key.
        for candidate in entry
            .child(near)
            .into_iter()
            .chain(entry.child(near.opposite()))
        {
            visit(candidate)?;
        }
    }

    // 2. Key-side child, adjacent and parent links.
    for link in [links.child(near), links.adjacent(near), links.parent()]
        .into_iter()
        .flatten()
    {
        visit(link.peer)?;
    }
    ControlFlow::Continue(())
}

impl BatonSystem {
    /// Exact-match query issued at a uniformly random node.
    pub fn search_exact(&mut self, key: Key) -> Result<SearchReport> {
        let issuer = self.random_peer().ok_or(BatonError::EmptyNetwork)?;
        self.search_exact_from(issuer, key)
    }

    /// Exact-match query issued at `issuer` (paper §IV-A).
    pub fn search_exact_from(&mut self, issuer: PeerId, key: Key) -> Result<SearchReport> {
        let walk = self.search_exact_walk(issuer, key)?;
        let matches = self.node_ref(walk.data)?.store.get(key).to_vec();
        Ok(SearchReport {
            key,
            owner: walk.owner,
            matches,
            messages: walk.messages,
            hops: walk.hops,
        })
    }

    /// Routes an exact query to the owner inside a fresh accounting scope.
    pub(crate) fn search_exact_walk(&mut self, issuer: PeerId, key: Key) -> Result<OwnerWalk> {
        self.check_alive(issuer)?;
        self.check_key(key)?;
        self.in_op("search.exact", |system, op| {
            system.locate_owner(op, issuer, key, "search_exact")
        })
    }

    /// Range query issued at a uniformly random node.
    pub fn search_range(&mut self, range: KeyRange) -> Result<RangeSearchReport> {
        let issuer = self.random_peer().ok_or(BatonError::EmptyNetwork)?;
        self.search_range_from(issuer, range)
    }

    /// Range query issued at `issuer` (paper §IV-B).
    ///
    /// The query is clamped to the overlay's current domain; an empty
    /// intersection returns an empty result without any messages.
    pub fn search_range_from(
        &mut self,
        issuer: PeerId,
        range: KeyRange,
    ) -> Result<RangeSearchReport> {
        let mut matches = Vec::new();
        let (messages, nodes_visited) = self.range_walk(issuer, range, |node, clamped| {
            matches.extend(node.store.scan(clamped))
        })?;
        Ok(RangeSearchReport {
            range,
            matches,
            messages,
            nodes_visited,
        })
    }

    /// The shared range-query engine: routes to the owner of the range's
    /// lower bound, then sweeps right along adjacent links until the range
    /// is covered, calling `visit(node, clamped_range)` on every
    /// intersecting node.  Returns `(messages, nodes_visited)`.
    pub(crate) fn range_walk<F>(
        &mut self,
        issuer: PeerId,
        range: KeyRange,
        mut visit: F,
    ) -> Result<(u64, usize)>
    where
        F: FnMut(&BatonNode, KeyRange),
    {
        self.check_alive(issuer)?;
        let clamped = range.intersection(self.domain);
        if clamped.is_empty() {
            return Ok((0, 0));
        }
        self.in_op("search.range", |system, op| {
            system.range_walk_in_op(op, issuer, clamped, &mut visit)
        })
    }

    /// The body of [`range_walk`](Self::range_walk), inside an open scope:
    /// route to the owner of the range's lower bound (exactly like a point
    /// query), then sweep right.
    fn range_walk_in_op(
        &mut self,
        op: OpScope,
        issuer: PeerId,
        clamped: KeyRange,
        visit: &mut dyn FnMut(&BatonNode, KeyRange),
    ) -> Result<(u64, usize)> {
        let walk = self.locate_owner(op, issuer, clamped.low(), "search_range")?;
        let mut messages = walk.messages;
        let mut nodes_visited = 0usize;
        // At k > 1 the walk may have terminated at a replica holder for a
        // dead owner; the sweep then starts inside the dead node's retained
        // slice, served on its behalf.  `from` tracks the last *alive* node
        // so every hop has a live sender.
        let mut current = walk.data;
        let mut from = walk.owner;
        let mut dead_run = usize::from(walk.data != walk.owner);
        let limit = self.walk_limit() as usize + self.node_count();
        loop {
            let (node_range, next) = {
                let node = self.node_ref(current)?;
                visit(node, clamped);
                let h = node.position.heap_index() as usize;
                let next = self.by_position.adjacent(current, h, Side::Right);
                (self.range_ref(current)?, next.map(|l| l.peer))
            };
            nodes_visited += 1;
            if node_range.high() >= clamped.high() {
                break;
            }
            let Some(next) = next else { break };
            let delivered = self.hop(
                op,
                from,
                next,
                walk.hops + nodes_visited as u32,
                "search.range",
            )?;
            messages += 1;
            if delivered {
                dead_run = 0;
                from = next;
            } else if self.replication <= 1 {
                // The adjacent node is unreachable (an unrecovered failure)
                // and nothing replicates its slice: return the partial
                // answer gathered so far.
                break;
            } else {
                dead_run += 1;
                if dead_run >= self.replication {
                    // Every holder of this slice died inside one repair
                    // window: the range cannot be answered until repair.
                    return Err(BatonError::PeerNotAlive(next));
                }
                // A surviving neighbour replicates the dead node's slice:
                // sweep through the retained content on its behalf.
            }
            current = next;
            if nodes_visited > limit {
                return Err(BatonError::RoutingLoop {
                    operation: "search_range",
                    hops: nodes_visited as u32,
                });
            }
        }
        Ok((messages, nodes_visited))
    }

    /// `true` if the node managing `range` terminates the walk towards
    /// `key`: it owns the key, or it is the boundary node that would expand
    /// its range to cover an out-of-domain key (§IV-C).
    fn terminates_walk(&self, range: KeyRange, key: Key) -> bool {
        let domain = self.domain;
        range.contains(key)
            || (key >= range.high() && range.high() >= domain.high())
            || (key < range.low() && range.low() <= domain.low())
    }

    /// [`terminates_walk`](Self::terminates_walk) for the occupant of heap
    /// index `h`, read from the routing plane.
    #[inline]
    fn plane_terminates(&self, h: usize, key: Key) -> bool {
        let (_, range) = self.by_position.at(h).expect("walk frames are occupied");
        self.terminates_walk(range, key)
    }

    /// Failover termination at k > 1: an alive node also terminates the
    /// walk when it holds the replica of a *dead* adjacent neighbour whose
    /// range contains `key` — the query is answered from the replica
    /// instead of bouncing off the dead owner until the budget runs out.
    /// Returns the dead node whose retained slice serves the answer.
    ///
    /// Free at k = 1 (and on any run without failures): the first guard
    /// short-circuits before touching any link.
    fn replica_terminates_at(&self, peer: PeerId, key: Key) -> Result<Option<PeerId>> {
        if self.replication <= 1 || self.dead_peers.is_empty() {
            return Ok(None);
        }
        let links = self.links_of(peer)?;
        for link in Side::BOTH
            .into_iter()
            .filter_map(|side| links.adjacent(side))
        {
            let candidate = link.peer;
            if self.net.is_alive(candidate) {
                continue;
            }
            let Some(candidate_range) = self.range_of(candidate) else {
                continue;
            };
            if candidate_range.contains(key) && self.replica_pair(candidate).contains(&Some(peer)) {
                return Ok(Some(candidate));
            }
        }
        Ok(None)
    }

    /// The first of the [`walk_candidates`] of `peer`, at heap index `h`,
    /// with its own heap index — all a healthy hop needs — read from the
    /// routing plane directly.
    ///
    /// Towards the right it is the occupant of the farthest `h + 2^k` on
    /// `h`'s level whose range starts at or below `key`; towards the left,
    /// of the farthest `h − 2^k` whose range ends above `key`: the farthest
    /// matching routing-table entry.  Failing both, the key-side child
    /// `2h + 1` or `2h`, and then the key-side adjacent and the parent.
    fn plane_first_candidate(
        &self,
        peer: PeerId,
        h: usize,
        key: Key,
    ) -> Result<Option<(PeerId, usize)>> {
        let plane = &self.by_position;
        let (_, range) = plane.at(h).expect("walk frames are occupied");
        let level_start = 1usize << h.ilog2();
        let towards_right = key >= range.high();
        let (room, child) = if towards_right {
            (2 * level_start - 1 - h, 2 * h + 1)
        } else {
            (h - level_start, 2 * h)
        };
        if room > 0 {
            for k in (0..=room.ilog2()).rev() {
                let target = if towards_right {
                    h + (1 << k)
                } else {
                    h - (1 << k)
                };
                let Some((candidate, candidate_range)) = plane.at(target) else {
                    continue;
                };
                let matching = if towards_right {
                    candidate_range.low() <= key
                } else {
                    candidate_range.high() > key
                };
                if matching {
                    return Ok(Some((candidate, target)));
                }
            }
        }
        if let Some((candidate, _)) = plane.at(child) {
            return Ok(Some((candidate, child)));
        }
        let links = self.links_of(peer)?;
        let near = if towards_right {
            Side::Right
        } else {
            Side::Left
        };
        let fallback = [links.adjacent(near), links.parent()].into_iter().flatten();
        Ok(fallback
            .map(|link| (link.peer, link.position.heap_index() as usize))
            .find(|&(candidate, _)| candidate != peer))
    }

    /// The first of `peer`'s [`walk_candidates`], from its full link view —
    /// the reference [`plane_first_candidate`](Self::plane_first_candidate)
    /// is checked against.
    fn first_walk_candidate(&self, peer: PeerId, key: Key) -> Result<Option<PeerId>> {
        let range = self.range_ref(peer)?;
        let first = walk_candidates(&self.links_of(peer)?, range, key, |candidate| {
            if candidate == peer {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(candidate)
            }
        });
        Ok(first.break_value())
    }

    /// Appends the §III-D *fallback* candidates of `peer` to
    /// `arena[start..]`: every remaining link — overshooting key-side table
    /// entries (nearest first, with their recorded children), the away-side
    /// child/adjacent links and the away-side table — so that when failures
    /// block every greedy candidate the walk can still detour through any
    /// live neighbour rather than give up.
    ///
    /// Computed lazily, only when the greedy [`walk_candidates`] are
    /// exhausted (i.e. a failure was actually hit); `arena[start..]` already
    /// holds the greedy list, which the shared dedup naturally skips.
    fn push_fallback_candidates(
        &self,
        peer: PeerId,
        key: Key,
        arena: &mut Vec<PeerId>,
        start: usize,
    ) -> Result<()> {
        let links = self.links_of(peer)?;
        let towards_right = key >= self.range_ref(peer)?.high();
        let near = if towards_right {
            Side::Right
        } else {
            Side::Left
        };
        let push_entry = |arena: &mut Vec<PeerId>, entry: RoutingEntry| {
            push_candidate(arena, start, peer, entry.peer);
            for candidate in entry.children() {
                push_candidate(arena, start, peer, candidate);
            }
        };

        // Overshooting key-side entries, nearest first — they land past the
        // key, from where the walk can come back.
        for (_, entry) in links.table(near).iter() {
            push_entry(arena, entry);
        }

        // The away side of the node, nearest first.
        let far = near.opposite();
        for link in [links.child(far), links.adjacent(far)]
            .into_iter()
            .flatten()
        {
            push_candidate(arena, start, peer, link.peer);
        }
        for (_, entry) in links.table(far).iter() {
            push_entry(arena, entry);
        }
        Ok(())
    }

    /// Routes from `issuer` towards the node owning `key`, following the
    /// `search_exact` algorithm of §IV-A.  Keys outside the current domain
    /// terminate at the leftmost / rightmost node (the node that would
    /// expand its range to cover them, §IV-C).
    ///
    /// The walk is fault tolerant (§III-D) and implemented as a depth-first
    /// exploration over [`walk_candidates`], extended lazily with
    /// [`push_fallback_candidates`](Self::push_fallback_candidates) when the
    /// greedy options run out: each node tries its candidates from most to
    /// least useful, paying one
    /// (counted, failed) message per dead candidate it bounces off; the
    /// request carries the set of nodes already visited so the walk never
    /// ping-pongs, and a node whose every candidate is dead or visited sends
    /// the request *back* to the node it came from (one more counted
    /// message), which resumes with its own next candidate.  On a healthy
    /// network the first candidate is always alive and unvisited, so the
    /// walk — and its message count — is exactly the greedy §IV-A descent,
    /// and no candidate list is ever written out (see [`WalkFrame`]).
    ///
    /// At k = 1 a bounce off the node that terminates the walk (the key's
    /// owner, or the §IV-C boundary node) ends it with
    /// [`BatonError::PeerNotAlive`] naming that node.  The exit is exact:
    /// ranges partition the domain and a dead node keeps its range until
    /// repaired, so the DFS could only have swept every live node and
    /// failed the same way.  At k > 1 a live replica holder still ends the
    /// walk ([`replica_terminates_at`](Self::replica_terminates_at)); when
    /// every holder is dead the DFS still sweeps before failing.
    pub(crate) fn locate_owner(
        &mut self,
        op: OpScope,
        issuer: PeerId,
        key: Key,
        operation: &'static str,
    ) -> Result<OwnerWalk> {
        let issuer_h = self.node_ref(issuer)?.position.heap_index() as usize;
        if self.terminates_walk(self.range_ref(issuer)?, key) {
            return Ok(OwnerWalk {
                owner: issuer,
                data: issuer,
                messages: 0,
                hops: 0,
            });
        }
        if let Some(dead) = self.replica_terminates_at(issuer, key)? {
            return Ok(OwnerWalk {
                owner: issuer,
                data: dead,
                messages: 0,
                hops: 0,
            });
        }
        // Borrow juggling: the scratch buffers live on the system but the
        // walk also sends messages through `self`, so take them out for the
        // duration of the walk and put them back whatever the outcome.
        let mut scratch = std::mem::take(&mut self.walk_scratch);
        let result = self.locate_owner_walk(op, issuer, issuer_h, key, operation, &mut scratch);
        self.walk_scratch = scratch;
        result
    }

    /// The DFS itself, running entirely inside `scratch` (see
    /// [`WalkScratch`]): no allocation on a healthy walk after the buffers
    /// have warmed up.  At k = 1 it returns at the first bounce off the
    /// node that terminates the walk, so an unavailable key costs one
    /// greedy descent plus the bounces on the way, not a sweep.
    fn locate_owner_walk(
        &mut self,
        op: OpScope,
        issuer: PeerId,
        issuer_h: usize,
        key: Key,
        operation: &'static str,
        scratch: &mut WalkScratch,
    ) -> Result<OwnerWalk> {
        // A DFS visits every live node at most once and every link at most
        // twice (forward try + backtrack), so this budget is a safety net
        // against bookkeeping bugs, not a tuning knob.
        let message_budget = (self.walk_limit() as u64) * 4 + 4 * self.node_count() as u64;
        scratch.begin(self.net.peers().total());
        scratch.mark_visited(issuer);
        scratch.frames.push(WalkFrame {
            peer: issuer,
            h: issuer_h,
            start: 0,
            end: 0,
            next: 0,
            built: Built::Nothing,
        });
        let mut messages = 0u64;
        let mut hops = 0u32;
        loop {
            let top = *scratch
                .frames
                .last()
                .expect("stack never drains in the loop");
            let current = top.peer;
            // The candidate, with its heap index when the plane gave it.
            let (candidate, candidate_h) = match top.built {
                Built::Nothing if top.next == 0 => {
                    let first = self.plane_first_candidate(current, top.h, key)?;
                    debug_assert_eq!(
                        first.map(|(candidate, _)| candidate),
                        self.first_walk_candidate(current, key)?,
                        "the routing plane disagrees with {current}'s routing table"
                    );
                    (first.map(|(candidate, _)| candidate), first.map(|(_, h)| h))
                }
                Built::Nothing => {
                    // The first candidate was dead, visited or a dead end:
                    // write out the full greedy list and resume behind its
                    // head.  No frame is left above, so the arena tail is ours.
                    debug_assert_eq!(top.start, scratch.arena.len());
                    let range = self.range_ref(current)?;
                    let links = self.links_of(current)?;
                    let _: ControlFlow<()> = walk_candidates(&links, range, key, |candidate| {
                        push_candidate(&mut scratch.arena, top.start, current, candidate);
                        ControlFlow::Continue(())
                    });
                    let frame = scratch.frames.last_mut().expect("unchanged");
                    frame.built = Built::Greedy;
                    frame.end = scratch.arena.len();
                    continue;
                }
                _ => (
                    scratch.arena[top.start..top.end].get(top.next).copied(),
                    None,
                ),
            };
            let Some(candidate) = candidate else {
                if top.built != Built::Fallback {
                    // The greedy candidates are exhausted (a failure was
                    // actually hit): extend with the full §III-D fallback
                    // link set, computed lazily so healthy hops never pay
                    // for it.  The top frame owns the arena tail, so the
                    // fallback candidates append in place.
                    debug_assert_eq!(top.end, scratch.arena.len());
                    self.push_fallback_candidates(current, key, &mut scratch.arena, top.start)?;
                    let frame = scratch.frames.last_mut().expect("unchanged");
                    frame.built = Built::Fallback;
                    frame.end = scratch.arena.len();
                    continue;
                }
                // Every candidate of `current` is dead or already explored:
                // hand the request back to the node it came from.
                let exhausted = scratch.frames.pop().expect("just peeked");
                scratch.arena.truncate(exhausted.start);
                let Some(previous) = scratch.frames.last() else {
                    // The issuer itself is out of options: the key is
                    // unreachable until the failures are repaired.
                    return Err(BatonError::PeerNotAlive(exhausted.peer));
                };
                let previous_peer = previous.peer;
                hops += 1;
                self.hop(op, exhausted.peer, previous_peer, hops, "search.exact")?;
                messages += 1;
                if messages > message_budget {
                    return Err(BatonError::RoutingLoop { operation, hops });
                }
                continue;
            };
            scratch.frames.last_mut().expect("unchanged").next += 1;
            if scratch.is_visited(candidate) {
                continue;
            }
            let delivered = self.hop(op, current, candidate, hops + 1, "search.exact")?;
            messages += 1;
            if messages > message_budget {
                return Err(BatonError::RoutingLoop { operation, hops });
            }
            if !delivered {
                // A dead owner at k = 1: no live peer can end this walk
                // (see `locate_owner`), so stop rather than sweep.
                if self.replication <= 1
                    && self
                        .range_of(candidate)
                        .is_some_and(|range| self.terminates_walk(range, key))
                {
                    return Err(BatonError::PeerNotAlive(candidate));
                }
                continue;
            }
            scratch.mark_visited(candidate);
            hops += 1;
            let candidate_h = match candidate_h {
                Some(h) => h,
                None => self.node_ref(candidate)?.position.heap_index() as usize,
            };
            if self.plane_terminates(candidate_h, key) {
                return Ok(OwnerWalk {
                    owner: candidate,
                    data: candidate,
                    messages,
                    hops,
                });
            }
            if let Some(dead) = self.replica_terminates_at(candidate, key)? {
                return Ok(OwnerWalk {
                    owner: candidate,
                    data: dead,
                    messages,
                    hops,
                });
            }
            scratch.frames.push(WalkFrame {
                peer: candidate,
                h: candidate_h,
                start: scratch.arena.len(),
                end: scratch.arena.len(),
                next: 0,
                built: Built::Nothing,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatonConfig;
    use crate::validate::validate;

    fn build(n: usize, seed: u64) -> BatonSystem {
        BatonSystem::build(BatonConfig::default(), seed, n).expect("build network")
    }

    #[test]
    fn search_on_empty_network_fails() {
        let mut system = BatonSystem::new(BatonConfig::default(), 1);
        assert_eq!(
            system.search_exact(5).unwrap_err(),
            BatonError::EmptyNetwork
        );
    }

    #[test]
    fn search_out_of_domain_key_is_rejected() {
        let mut system = build(4, 2);
        let err = system.search_exact(0).unwrap_err();
        assert_eq!(err, BatonError::KeyOutOfDomain(0));
    }

    #[test]
    fn single_node_owns_every_key() {
        let mut system = BatonSystem::new(BatonConfig::default(), 3);
        let root = system.bootstrap().unwrap();
        let report = system.search_exact_from(root, 123_456).unwrap();
        assert_eq!(report.owner, root);
        assert_eq!(report.messages, 0);
        assert_eq!(report.hops, 0);
        assert!(report.matches.is_empty());
    }

    #[test]
    fn exact_search_finds_owner_from_every_node() {
        let mut system = build(60, 5);
        validate(&system).unwrap();
        // Pick a handful of keys; from every issuer the walk must terminate
        // at the node whose range contains the key.
        let keys = [1u64, 999_999_999 - 1, 500_000_000, 123_456_789, 42];
        for key in keys {
            for issuer in system.peers().to_vec() {
                let report = system.search_exact_from(issuer, key).unwrap();
                let owner_range = system.range_of(report.owner).unwrap();
                assert!(
                    owner_range.contains(key),
                    "owner {owner_range:?} does not contain {key}"
                );
            }
        }
    }

    #[test]
    fn exact_search_is_logarithmic() {
        let mut system = build(500, 7);
        let log_n = (system.node_count() as f64).log2();
        let mut total = 0u64;
        let queries = 200;
        for i in 0..queries {
            let key = 1 + (i as u64 * 4_999_999) % 999_999_998;
            let report = system.search_exact(key).unwrap();
            total += report.messages;
            assert!(
                (report.messages as f64) <= 2.0 * log_n + 6.0,
                "a single search took {} messages (log N = {log_n:.1})",
                report.messages
            );
        }
        let avg = total as f64 / queries as f64;
        assert!(avg <= 1.6 * log_n + 2.0, "average {avg} too high");
    }

    #[test]
    fn exact_search_finds_inserted_values() {
        let mut system = build(30, 9);
        system.insert(777_777, 42).unwrap();
        system.insert(777_777, 43).unwrap();
        let report = system.search_exact(777_777).unwrap();
        assert_eq!(report.matches.len(), 2);
        assert!(report.matches.contains(&42));
        assert!(report.matches.contains(&43));
        let miss = system.search_exact(777_778).unwrap();
        assert!(miss.matches.is_empty());
    }

    #[test]
    fn range_search_returns_all_matches_in_order() {
        let mut system = build(40, 11);
        let keys: Vec<u64> = (1..=200u64).map(|i| i * 4_000_000).collect();
        for (i, k) in keys.iter().enumerate() {
            system.insert(*k, i as u64).unwrap();
        }
        let range = KeyRange::new(100_000_000, 500_000_001);
        let report = system.search_range(range).unwrap();
        let expected: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|k| range.contains(*k))
            .collect();
        let found_keys: Vec<u64> = report.matches.iter().map(|(k, _)| *k).collect();
        assert_eq!(found_keys, expected);
        assert!(report.nodes_visited >= 1);
        assert!(report.messages >= report.nodes_visited as u64 - 1);
    }

    #[test]
    fn range_search_cost_is_log_n_plus_nodes_covered() {
        let mut system = build(300, 13);
        let log_n = (system.node_count() as f64).log2();
        let report = system
            .search_range(KeyRange::new(200_000_000, 400_000_000))
            .unwrap();
        let bound = 2.0 * log_n + 6.0 + report.nodes_visited as f64;
        assert!(
            (report.messages as f64) <= bound,
            "range search took {} messages, visited {} nodes (bound {bound})",
            report.messages,
            report.nodes_visited
        );
    }

    #[test]
    fn empty_or_out_of_domain_range_returns_nothing() {
        let mut system = build(10, 15);
        let empty = system.search_range(KeyRange::new(5, 5)).unwrap();
        assert!(empty.matches.is_empty());
        assert_eq!(empty.messages, 0);
        assert_eq!(empty.nodes_visited, 0);
    }

    #[test]
    fn failed_search_still_finishes_its_op_so_retirement_drains() {
        // Kill every peer except one issuer: the walk cannot reach keys
        // owned by the dead peers and errors out.  The errored operation
        // must still be finished — an unfinished op at the front of the
        // live window would block `retire_finished` for the rest of the
        // run.
        let mut system = build(8, 21);
        let peers = system.peers().to_vec();
        let issuer = peers[0];
        for peer in &peers[1..] {
            system.net.fail_peer(*peer);
        }
        let victim_key = {
            let survivor = system.range_of(issuer).unwrap();
            // Any key outside the survivor's range is owned by a dead peer.
            if survivor.low() > system.domain().low() {
                system.domain().low()
            } else {
                survivor.high()
            }
        };
        assert!(system.search_exact_from(issuer, victim_key).is_err());
        assert!(system
            .search_range_from(issuer, KeyRange::new(victim_key, victim_key + 1))
            .is_err());
        system.net.stats_mut().retire_finished();
        assert_eq!(
            system.net.stats().live_op_count(),
            0,
            "errored searches left unfinished ops behind"
        );
    }

    #[test]
    fn whole_domain_range_visits_every_node() {
        let mut system = build(25, 17);
        let report = system.search_range(KeyRange::paper_domain()).unwrap();
        assert_eq!(report.nodes_visited, system.node_count());
    }

    /// A 200-node overlay at replication `k`, an issuer and the owner of
    /// `key` far apart in key order, and the issuer's healthy search for
    /// `key` traced as `(from, to, delivered)` per hop.  Nothing is failed.
    fn owner_far_from_issuer(k: usize) -> (BatonSystem, PeerId, PeerId, Key, Vec<TracedHop>) {
        let mut system = build(200, 31);
        system.set_replication(k).unwrap();
        let mut by_range = system.peers().to_vec();
        by_range.sort_by_key(|p| system.range_of(*p).unwrap().low());
        let (issuer, owner) = (by_range[10], by_range[150]);
        let key = system.range_of(owner).unwrap().low() + 1;
        let (report, hops) = traced(&mut system, |s| s.search_exact_from(issuer, key));
        assert_eq!(report.unwrap().owner, owner);
        (system, issuer, owner, key, hops)
    }

    type TracedHop = (PeerId, PeerId, bool);

    /// Runs `op` with the route recorder on and returns its hops.
    fn traced<T>(
        system: &mut BatonSystem,
        op: impl FnOnce(&mut BatonSystem) -> T,
    ) -> (T, Vec<TracedHop>) {
        system.net.set_trace(baton_net::TraceConfig::default());
        let result = op(system);
        let trace = system.net.take_trace().expect("trace was installed");
        let hops = trace
            .spans()
            .flat_map(|span| &span.hops)
            .map(|hop| (hop.from, hop.to, hop.delivered))
            .collect();
        (result, hops)
    }

    /// Asserts that no errored operation is left open.
    fn assert_no_open_op(system: &mut BatonSystem) {
        system.net.stats_mut().retire_finished();
        assert_eq!(system.net.stats().live_op_count(), 0);
    }

    #[test]
    fn k1_search_ends_at_the_first_bounce_off_a_dead_owner() {
        let (mut system, issuer, owner, key, healthy) = owner_far_from_issuer(1);
        let items = system.total_items();
        system.fail_silently(owner).unwrap();

        // The same greedy walk as on the healthy overlay, up to and
        // including the hop to the owner, which now bounces — and no more.
        let (result, hops) = traced(&mut system, |s| s.search_exact_from(issuer, key));
        assert_eq!(result.unwrap_err(), BatonError::PeerNotAlive(owner));
        let (last, walk) = healthy.split_last().expect("owner is not the issuer");
        assert_eq!(&hops[..walk.len()], walk);
        assert_eq!(hops[walk.len()..], [(last.0, owner, false)]);
        assert_eq!(system.net.stats().total_failed(), 1);
        assert_no_open_op(&mut system);

        // A range whose lower bound lies in the dead slice stops the same way.
        let range = KeyRange::new(key, key + 1_000);
        assert_eq!(
            system.search_range_from(issuer, range).unwrap_err(),
            BatonError::PeerNotAlive(owner)
        );
        assert_eq!(system.net.stats().total_failed(), 2);
        assert_no_open_op(&mut system);
        assert_eq!(system.total_items(), items);
    }

    #[test]
    fn k2_search_with_a_dead_owner_is_answered_from_the_replica() {
        let (mut system, issuer, owner, key, _) = owner_far_from_issuer(2);
        system.insert(key, 7).unwrap();
        system.fail_silently(owner).unwrap();
        let sent = system.net.stats().total_sent();
        let report = system.search_exact_from(issuer, key).unwrap();
        assert_ne!(report.owner, owner);
        assert_eq!(report.matches, vec![7]);
        // The failover walk's cost, recorded before the k = 1 owner-bounce
        // exit existed: k > 1 walks are untouched by it.
        assert_eq!((report.messages, report.hops), (14, 12));
        assert_eq!(system.net.stats().total_sent() - sent, report.messages);
        assert_no_open_op(&mut system);
    }

    #[test]
    fn search_from_dead_issuer_is_rejected() {
        let mut system = build(10, 19);
        let victim = system.peers()[0];
        system.net.fail_peer(victim);
        assert_eq!(
            system.search_exact_from(victim, 5).unwrap_err(),
            BatonError::PeerNotAlive(victim)
        );
    }
}
