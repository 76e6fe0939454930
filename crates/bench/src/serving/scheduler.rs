//! Pluggable request schedulers for the serving cluster.
//!
//! Three disciplines cover the space the paper's serving discussion
//! cares about:
//!
//! * [`SchedulerKind::Fifo`] — strict arrival order, one request per
//!   device dispatch. The baseline every identity test keys off (its
//!   service time decomposes exactly into shape + admission).
//! * [`SchedulerKind::Priority`] — lowest tenant priority value first,
//!   FIFO within a priority level.
//! * [`SchedulerKind::Batching`] — continuous batching for LLM-shaped
//!   work: the head of the FIFO queue pulls up to `max_batch - 1` queued
//!   requests of the *same* (tenant, class) — provided the class is
//!   marked batchable — into one device batch, amortizing per-launch
//!   overhead the way vLLM-style servers amortize decode steps.
//!
//! FIFO dispatches in index order, so the cluster drains it by a
//! recurrence and keeps no queue for it; [`SchedQueue`] holds the
//! waiting requests of the other two. Its state is plain
//! `Vec`/`VecDeque`/`BinaryHeap` of `u32` request indices. A request's
//! index is its global arrival rank, so scheduling decisions are
//! deterministic and independent of engine thread count by
//! construction. Batches are written into a caller-owned buffer, so
//! draining a queue allocates nothing per batch.

use std::collections::{BinaryHeap, VecDeque};

use hcc_workloads::TenantSpec;

use super::arrival::Request;

/// Which scheduling discipline the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Strict arrival order.
    Fifo,
    /// Tenant priority, then arrival order.
    Priority,
    /// FIFO with continuous batching of same-shape batchable requests.
    Batching,
}

impl SchedulerKind {
    /// Every discipline, in report order.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Fifo,
        SchedulerKind::Priority,
        SchedulerKind::Batching,
    ];

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<SchedulerKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fifo" => Some(SchedulerKind::Fifo),
            "priority" | "prio" => Some(SchedulerKind::Priority),
            "batching" | "batch" | "cb" | "continuous" => Some(SchedulerKind::Batching),
            _ => None,
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerKind::Fifo => f.write_str("fifo"),
            SchedulerKind::Priority => f.write_str("priority"),
            SchedulerKind::Batching => f.write_str("batching"),
        }
    }
}

/// The pending-request queue for one cluster run under the priority or
/// batching discipline. Requests are referred to by their `u32` index
/// into the run's request slice, which is also their arrival rank.
#[derive(Debug)]
pub struct SchedQueue {
    /// Batching; otherwise priority.
    batching: bool,
    max_batch: usize,
    /// Tenant priorities, indexed by tenant.
    priorities: Vec<u8>,
    /// First (tenant, class) slot of each tenant: slot = `slot_base[tenant] + class`.
    slot_base: Vec<usize>,
    /// Per-class batchability, indexed by (tenant, class) slot.
    batchable: Vec<bool>,
    /// Batching: arrival order, the primary order.
    fifo: VecDeque<u32>,
    /// Priority order: (priority, index).
    prio: BinaryHeap<std::cmp::Reverse<(u8, u32)>>,
    /// Batching: per-(tenant, class) slot FIFO of *batchable* pending
    /// requests (empty for non-batchable slots).
    shape_queues: Vec<VecDeque<u32>>,
    /// Batching: requests already pulled into a batch as followers
    /// (empty under priority).
    claimed: Vec<bool>,
    pending: usize,
}

impl SchedQueue {
    /// An empty queue for `capacity` requests under the given discipline.
    ///
    /// # Panics
    /// Under [`SchedulerKind::Fifo`], which needs no queue.
    pub fn new(
        kind: SchedulerKind,
        tenants: &[TenantSpec],
        max_batch: usize,
        capacity: usize,
    ) -> Self {
        assert_ne!(kind, SchedulerKind::Fifo, "FIFO drains without a queue");
        let batching = kind == SchedulerKind::Batching;
        let mut slot_base = Vec::with_capacity(tenants.len());
        let mut batchable = Vec::new();
        for t in tenants {
            slot_base.push(batchable.len());
            batchable.extend(t.mix.iter().map(|c| c.batchable));
        }
        SchedQueue {
            batching,
            max_batch: max_batch.max(1),
            priorities: tenants.iter().map(|t| t.priority).collect(),
            slot_base,
            shape_queues: vec![VecDeque::new(); batchable.len()],
            batchable,
            fifo: VecDeque::new(),
            prio: BinaryHeap::new(),
            claimed: if batching {
                vec![false; capacity]
            } else {
                Vec::new()
            },
            pending: 0,
        }
    }

    /// The (tenant, class) slot of `req`.
    fn slot(&self, req: &Request) -> usize {
        self.slot_base[req.tenant as usize] + req.class as usize
    }

    /// Number of requests waiting.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Enqueues one request (by index into the run's request slice).
    pub fn push(&mut self, idx: u32, req: &Request) {
        self.pending += 1;
        if self.batching {
            self.fifo.push_back(idx);
            let slot = self.slot(req);
            if self.batchable[slot] {
                self.shape_queues[slot].push_back(idx);
            }
        } else {
            let priority = self.priorities[req.tenant as usize];
            self.prio.push(std::cmp::Reverse((priority, idx)));
        }
    }

    /// Pops the next device batch into `batch` (cleared first): the
    /// scheduled head plus (for the batching discipline) up to
    /// `max_batch - 1` same-shape followers. Members come back in arrival
    /// order, head first. Returns `false`, leaving `batch` empty, when
    /// nothing is waiting.
    pub(crate) fn next_batch(&mut self, requests: &[Request], batch: &mut Vec<u32>) -> bool {
        batch.clear();
        let head = if self.batching {
            // Skip entries already claimed as batch followers.
            std::iter::from_fn(|| self.fifo.pop_front()).find(|&idx| !self.claimed[idx as usize])
        } else {
            self.prio.pop().map(|r| r.0 .1)
        };
        let Some(head) = head else { return false };
        self.pending -= 1;
        batch.push(head);
        if self.batching {
            let slot = self.slot(&requests[head as usize]);
            if self.batchable[slot] {
                let q = &mut self.shape_queues[slot];
                let front = q.pop_front();
                debug_assert_eq!(front, Some(head), "head leads its shape queue");
                while batch.len() < self.max_batch {
                    let Some(follower) = q.pop_front() else { break };
                    self.claimed[follower as usize] = true;
                    self.pending -= 1;
                    batch.push(follower);
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_types::SimTime;
    use hcc_workloads::default_tenants;

    /// The request of rank `rank` (it arrives at `rank` ns).
    fn req(rank: u64, tenant: u32, class: u32) -> Request {
        Request {
            arrival: SimTime::from_nanos(rank),
            tenant,
            class,
        }
    }

    /// Enqueues every request of `reqs` in rank order.
    fn push_all(q: &mut SchedQueue, reqs: &[Request]) {
        for (i, r) in reqs.iter().enumerate() {
            q.push(i as u32, r);
        }
    }

    fn drain(q: &mut SchedQueue, reqs: &[Request]) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        let mut batch = vec![u32::MAX];
        while q.next_batch(reqs, &mut batch) {
            out.push(batch.clone());
        }
        assert!(
            batch.is_empty(),
            "an exhausted queue leaves the buffer empty"
        );
        assert!(q.is_empty());
        out
    }

    #[test]
    #[should_panic(expected = "FIFO drains without a queue")]
    fn fifo_has_no_queue() {
        SchedQueue::new(SchedulerKind::Fifo, &default_tenants(2), 8, 4);
    }

    #[test]
    fn priority_prefers_low_priority_values() {
        let tenants = default_tenants(2); // chat prio 0, batch prio 1
        let reqs = [req(0, 1, 0), req(1, 0, 0), req(2, 1, 1), req(3, 0, 1)];
        let mut q = SchedQueue::new(SchedulerKind::Priority, &tenants, 8, reqs.len());
        push_all(&mut q, &reqs);
        // Both chat requests (1, 3) go first, in rank order.
        assert_eq!(
            drain(&mut q, &reqs),
            vec![vec![1], vec![3], vec![0], vec![2]]
        );
    }

    #[test]
    fn batching_coalesces_same_shape_runs() {
        let tenants = default_tenants(2);
        // chat class 0 ("prefill", batchable) x3, interleaved with a
        // non-batchable chat class 2 ("embed").
        let reqs = [req(0, 0, 0), req(1, 0, 2), req(2, 0, 0), req(3, 0, 0)];
        let mut q = SchedQueue::new(SchedulerKind::Batching, &tenants, 8, reqs.len());
        push_all(&mut q, &reqs);
        // Head 0 pulls the later same-shape 2 and 3 past the embed.
        assert_eq!(drain(&mut q, &reqs), vec![vec![0, 2, 3], vec![1]]);
    }

    #[test]
    fn batching_respects_max_batch_and_tenant_isolation() {
        let tenants = default_tenants(2);
        // Same batchable shape for chat (tenant 0 class 0) and batch's
        // gemm slice (tenant 1 class 3): never co-batched across tenants.
        let reqs = [
            req(0, 0, 0),
            req(1, 1, 3),
            req(2, 0, 0),
            req(3, 0, 0),
            req(4, 0, 0),
        ];
        let mut q = SchedQueue::new(SchedulerKind::Batching, &tenants, 3, reqs.len());
        push_all(&mut q, &reqs);
        assert_eq!(
            drain(&mut q, &reqs),
            vec![vec![0, 2, 3], vec![1], vec![4]],
            "batch caps at 3 and never mixes tenants"
        );
    }

    #[test]
    fn parse_round_trips() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("cb"), Some(SchedulerKind::Batching));
        assert_eq!(SchedulerKind::parse("nope"), None);
    }
}
