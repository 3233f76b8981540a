//! Job specifications, admission, and typed rejection.
//!
//! Jobs are admitted into a bounded queue ordered by priority (higher
//! first), then deadline weight (higher first), then submission order
//! (FIFO). When the queue is full the submission is rejected with a typed
//! [`AdmitError`] — a multi-tenant front-end needs backpressure it can
//! report, not silent queuing without bound.

use nnrt_graph::DataflowGraph;
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a submitted job, unique within one [`crate::Fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// What a tenant submits: a model to train for a number of steps, with
/// scheduling hints.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable name, e.g. `resnet50-3`.
    pub name: String,
    /// Model family, e.g. `resnet50`; jobs of one model share profile keys,
    /// which is what makes the shared store pay off.
    pub model: String,
    /// The training graph (one step's dataflow).
    pub graph: DataflowGraph,
    /// Training steps to run.
    pub steps: u32,
    /// Admission priority; higher is served first.
    pub priority: u8,
    /// Deadline-ish weight: orders jobs within one priority class (higher
    /// first) and weights the fleet's reported slowdowns.
    pub weight: f64,
}

/// Typed admission failure.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The admission queue is at capacity; retry after completions.
    Saturated {
        /// Jobs currently queued.
        queued: usize,
        /// The queue's capacity.
        capacity: usize,
        /// How long the submitter should wait before retrying, in simulated
        /// seconds — derived from the fleet's node clocks and backlog, not a
        /// constant.
        retry_after_secs: f64,
    },
    /// The job is malformed (empty graph or zero steps) and would never
    /// make progress.
    EmptyJob {
        /// The offending job's name.
        name: String,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Saturated {
                queued,
                capacity,
                retry_after_secs,
            } => write!(
                f,
                "admission queue saturated ({queued}/{capacity} jobs); retry in ~{retry_after_secs:.3}s"
            ),
            AdmitError::EmptyJob { name } => {
                write!(f, "job `{name}` has no work (empty graph or zero steps)")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// A queued job: spec + identity + the simulated time it arrived at.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// The job's fleet-unique id.
    pub id: JobId,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Simulated fleet time at submission, seconds.
    pub submitted_at: f64,
}

/// Bounded priority + FIFO admission queue.
#[derive(Debug, Default)]
pub struct AdmissionQueue {
    jobs: VecDeque<QueuedJob>,
    capacity: usize,
    rejections: u64,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` waiting jobs.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            jobs: VecDeque::new(),
            capacity,
            rejections: 0,
        }
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no job is waiting.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Submissions rejected so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Admits `spec` at simulated time `now`, or rejects it with a typed
    /// error. Admitted jobs are ordered by (priority desc, weight desc,
    /// submission order). `retry_after_hint` is the caller-computed wait a
    /// saturated rejection should carry (the queue itself cannot see node
    /// clocks).
    pub fn submit(
        &mut self,
        id: JobId,
        spec: JobSpec,
        now: f64,
        retry_after_hint: f64,
    ) -> Result<(), AdmitError> {
        if spec.graph.is_empty() || spec.steps == 0 {
            self.rejections += 1;
            return Err(AdmitError::EmptyJob { name: spec.name });
        }
        if self.jobs.len() >= self.capacity {
            self.rejections += 1;
            return Err(AdmitError::Saturated {
                queued: self.jobs.len(),
                capacity: self.capacity,
                retry_after_secs: retry_after_hint.max(0.0),
            });
        }
        let job = QueuedJob {
            id,
            spec,
            submitted_at: now,
        };
        // The queue is sorted by rank, descending, so inserting after the
        // last job not ranked strictly lower keeps equal ranks in submission
        // order (stable FIFO within a class). Scanning from the back finds
        // that spot at once in the common case of equal ranks.
        let (np, nw) = (job.spec.priority, job.spec.weight);
        let pos = self
            .jobs
            .iter()
            .rposition(|queued| {
                let (qp, qw) = (queued.spec.priority, queued.spec.weight);
                !(qp < np || (qp == np && qw < nw))
            })
            .map_or(0, |i| i + 1);
        self.jobs.insert(pos, job);
        Ok(())
    }

    /// Removes and returns the highest-ranked waiting job.
    pub fn pop(&mut self) -> Option<QueuedJob> {
        self.jobs.pop_front()
    }

    /// Peeks at the highest-ranked waiting job.
    pub fn peek(&self) -> Option<&QueuedJob> {
        self.jobs.front()
    }

    /// Iterates over the waiting jobs in service order.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedJob> {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_graph::{DataflowGraph, OpInstance, OpKind, Shape};
    use proptest::prelude::*;

    fn tiny_graph() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        g.add(OpInstance::new(OpKind::MatMul, Shape(vec![8, 8])), &[]);
        g
    }

    fn spec(name: &str, priority: u8, weight: f64) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            model: "tiny".to_string(),
            graph: tiny_graph(),
            steps: 1,
            priority,
            weight,
        }
    }

    #[test]
    fn priority_then_weight_then_fifo() {
        let mut q = AdmissionQueue::new(8);
        q.submit(JobId(0), spec("low-a", 0, 1.0), 0.0, 0.0).unwrap();
        q.submit(JobId(1), spec("high", 5, 1.0), 0.0, 0.0).unwrap();
        q.submit(JobId(2), spec("low-b", 0, 1.0), 0.0, 0.0).unwrap();
        q.submit(JobId(3), spec("low-heavy", 0, 9.0), 0.0, 0.0)
            .unwrap();
        let order: Vec<String> = std::iter::from_fn(|| q.pop())
            .map(|j| j.spec.name)
            .collect();
        assert_eq!(order, ["high", "low-heavy", "low-a", "low-b"]);
    }

    #[test]
    fn saturation_is_a_typed_rejection_with_a_retry_hint() {
        let mut q = AdmissionQueue::new(1);
        q.submit(JobId(0), spec("a", 0, 1.0), 0.0, 0.0).unwrap();
        let err = q.submit(JobId(1), spec("b", 0, 1.0), 0.0, 2.5).unwrap_err();
        assert_eq!(
            err,
            AdmitError::Saturated {
                queued: 1,
                capacity: 1,
                retry_after_secs: 2.5
            }
        );
        assert!(err.to_string().contains("retry in ~2.500s"));
        assert_eq!(q.rejections(), 1);
        // Popping frees a slot.
        q.pop();
        q.submit(JobId(2), spec("c", 0, 1.0), 0.0, 0.0).unwrap();
    }

    #[test]
    fn negative_retry_hints_are_clamped_to_zero() {
        let mut q = AdmissionQueue::new(1);
        q.submit(JobId(0), spec("a", 0, 1.0), 0.0, 0.0).unwrap();
        let err = q
            .submit(JobId(1), spec("b", 0, 1.0), 0.0, -3.0)
            .unwrap_err();
        match err {
            AdmitError::Saturated {
                retry_after_secs, ..
            } => assert_eq!(retry_after_secs, 0.0),
            other => panic!("expected saturation, got {other:?}"),
        }
    }

    #[test]
    fn empty_jobs_are_rejected() {
        let mut q = AdmissionQueue::new(4);
        let mut s = spec("no-steps", 0, 1.0);
        s.steps = 0;
        assert!(matches!(
            q.submit(JobId(0), s, 0.0, 0.0),
            Err(AdmitError::EmptyJob { .. })
        ));
        let empty = JobSpec {
            name: "no-graph".to_string(),
            model: "tiny".to_string(),
            graph: DataflowGraph::new(),
            steps: 3,
            priority: 0,
            weight: 1.0,
        };
        assert!(matches!(
            q.submit(JobId(1), empty, 0.0, 0.0),
            Err(AdmitError::EmptyJob { .. })
        ));
    }

    /// Reference insert rule, scanning from the front: before the first
    /// strictly-lower-ranked job.
    fn front_scan_insert(queue: &mut Vec<(u64, u8, f64)>, job: (u64, u8, f64)) {
        let (_, np, nw) = job;
        let pos = queue
            .iter()
            .position(|&(_, qp, qw)| qp < np || (qp == np && qw < nw))
            .unwrap_or(queue.len());
        queue.insert(pos, job);
    }

    fn arb_op() -> impl Strategy<Value = Option<(u8, f64)>> {
        // Few distinct ranks, so ties are common; `None` pops.
        let weight = proptest::sample::select(vec![-1.5, -0.0, 0.0, 0.5, 1.0, 2.0, 1e9]);
        (0u8..5, 0u8..3, weight).prop_map(|(op, p, w)| (op != 0).then_some((p, w)))
    }

    proptest! {
        #[test]
        fn back_scan_pops_in_the_front_scan_order(
            ops in proptest::collection::vec(arb_op(), 0..80)
        ) {
            let mut q = AdmissionQueue::new(usize::MAX);
            let mut model: Vec<(u64, u8, f64)> = Vec::new();
            let mut popped = (Vec::new(), Vec::new());
            for (id, op) in ops.into_iter().enumerate() {
                let id = id as u64;
                match op {
                    Some((p, w)) => {
                        q.submit(JobId(id), spec("j", p, w), 0.0, 0.0).unwrap();
                        front_scan_insert(&mut model, (id, p, w));
                    }
                    None => {
                        popped.0.push(q.pop().map(|j| j.id.0));
                        popped.1.push((!model.is_empty()).then(|| model.remove(0).0));
                    }
                }
            }
            popped.0.extend(std::iter::from_fn(|| q.pop()).map(|j| Some(j.id.0)));
            popped.1.extend(model.into_iter().map(|(id, _, _)| Some(id)));
            prop_assert_eq!(popped.0, popped.1);
        }
    }
}
