//! Bounded analysis job queue with admission control.
//!
//! ANALYZE requests that miss the verdict cache become *jobs*. The queue
//! enforces two admission bounds before accepting one:
//!
//! * a global cap on queued-but-not-started jobs — beyond it the client
//!   is shed with a retry-after hint instead of being buffered without
//!   bound, and
//! * a per-client in-flight cap, so one aggressive client cannot occupy
//!   the whole queue.
//!
//! Identical requests coalesce: if a `(digest, engine)` job is already
//! queued or running, a new request *attaches* to it rather than
//! enqueueing a duplicate — both clients observe the same job id and the
//! replay runs once. Worker threads block in [`JobQueue::next_job`];
//! completion wakes every attached waiter. Closing the queue stops
//! admission while letting workers drain what was already accepted —
//! the graceful-shutdown half of the protocol.

use crate::cache::{Verdict, VerdictKey};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};

/// Outcome of asking the queue to admit an ANALYZE request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Admitted: either newly enqueued or attached to an identical
    /// in-flight job.
    Admitted {
        /// The job handle to wait on or poll.
        job: u64,
        /// True if this admission created the job (as opposed to
        /// attaching to one already in flight). The creator's caller
        /// owns job-lifetime resources such as the store pin.
        new: bool,
    },
    /// Shed by admission control; retry after the given hint.
    Rejected {
        /// Suggested back-off in milliseconds.
        retry_millis: u64,
    },
    /// The queue is closed (server draining).
    Closed,
}

/// Observable state of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker is replaying the trace.
    Running,
    /// Finished successfully.
    Done(Verdict),
    /// Replay failed (I/O or decode error).
    Failed(String),
}

/// A claimed unit of work, handed to a worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Job id.
    pub id: u64,
    /// What to replay.
    pub key: VerdictKey,
}

#[derive(Debug)]
struct JobRecord {
    key: VerdictKey,
    state: JobState,
    /// Clients attached to this job (deduplicated by identity).
    clients: Vec<String>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Ids of jobs waiting for a worker, FIFO.
    ready: VecDeque<u64>,
    /// Admitted jobs by id. Finished records are retained for late
    /// STATUS polls, but only the most recent `finished_cap` of them —
    /// a fleet node serving millions of requests must not grow its job
    /// map without bound.
    jobs: HashMap<u64, JobRecord>,
    /// Terminal job ids in completion order, oldest first — the
    /// retention ring for finished records.
    finished: VecDeque<u64>,
    /// `(digest, engine)` → id, for queued/running jobs only.
    in_flight: HashMap<VerdictKey, u64>,
    /// Per-client count of attached not-yet-finished jobs.
    per_client: HashMap<String, usize>,
    next_id: u64,
    closed: bool,
    completed: u64,
    rejected: u64,
    coalesced: u64,
}

/// The admission-controlled job queue.
#[derive(Debug)]
pub struct JobQueue {
    /// Max queued-not-running jobs before load shedding.
    queue_cap: usize,
    /// Max unfinished jobs a single client may be attached to.
    per_client_cap: usize,
    /// Retry hint handed out on rejection.
    retry_millis: u64,
    /// Max finished job records retained for late STATUS polls.
    finished_cap: usize,
    inner: Mutex<Inner>,
    /// Signaled when `ready` gains an entry or the queue closes.
    work: Condvar,
    /// Signaled when any job reaches a terminal state.
    done: Condvar,
}

impl JobQueue {
    /// Creates a queue admitting at most `queue_cap` waiting jobs and
    /// `per_client_cap` unfinished jobs per client, handing out
    /// `retry_millis` as the shed hint.
    pub fn new(queue_cap: usize, per_client_cap: usize, retry_millis: u64) -> Self {
        JobQueue {
            queue_cap,
            per_client_cap,
            retry_millis,
            finished_cap: 4096,
            inner: Mutex::new(Inner::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Caps how many finished job records are retained for late STATUS
    /// polls (default 4096). Records pruned past the cap answer
    /// `UNKNOWN_JOB`, which clients already handle.
    pub fn finished_cap(mut self, cap: usize) -> Self {
        self.finished_cap = cap;
        self
    }

    /// Admits (or attaches, or sheds) an ANALYZE request from `client`.
    pub fn submit(&self, key: VerdictKey, client: &str) -> Admission {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Admission::Closed;
        }

        // Attach to an identical in-flight job: no new queue slot, but
        // the per-client cap still applies to the attachment.
        if let Some(&id) = inner.in_flight.get(&key) {
            let record = inner.jobs.get_mut(&id).expect("in-flight job exists");
            if record.clients.iter().any(|c| c == client) {
                inner.coalesced += 1;
                return Admission::Admitted {
                    job: id,
                    new: false,
                };
            }
            let count = inner.per_client.get(client).copied().unwrap_or(0);
            if count >= self.per_client_cap {
                inner.rejected += 1;
                return Admission::Rejected {
                    retry_millis: self.retry_millis,
                };
            }
            let record = inner.jobs.get_mut(&id).expect("in-flight job exists");
            record.clients.push(client.to_string());
            *inner.per_client.entry(client.to_string()).or_insert(0) += 1;
            inner.coalesced += 1;
            return Admission::Admitted {
                job: id,
                new: false,
            };
        }

        let queued = inner.ready.len();
        let count = inner.per_client.get(client).copied().unwrap_or(0);
        if queued >= self.queue_cap || count >= self.per_client_cap {
            inner.rejected += 1;
            return Admission::Rejected {
                retry_millis: self.retry_millis,
            };
        }

        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(
            id,
            JobRecord {
                key,
                state: JobState::Queued,
                clients: vec![client.to_string()],
            },
        );
        inner.in_flight.insert(key, id);
        inner.ready.push_back(id);
        *inner.per_client.entry(client.to_string()).or_insert(0) += 1;
        self.work.notify_one();
        Admission::Admitted { job: id, new: true }
    }

    /// Blocks until a job is ready and claims it, or returns `None` once
    /// the queue is closed *and* drained — the worker-thread exit signal.
    pub fn next_job(&self) -> Option<Job> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(id) = inner.ready.pop_front() {
                let record = inner.jobs.get_mut(&id).expect("ready job exists");
                record.state = JobState::Running;
                return Some(Job {
                    id,
                    key: record.key,
                });
            }
            if inner.closed {
                return None;
            }
            self.work.wait(&mut inner);
        }
    }

    /// Records a worker's result and wakes every attached waiter.
    pub fn complete(&self, id: u64, result: Result<Verdict, String>) {
        let mut inner = self.inner.lock();
        let Some(record) = inner.jobs.get_mut(&id) else {
            return;
        };
        record.state = match result {
            Ok(v) => JobState::Done(v),
            Err(e) => JobState::Failed(e),
        };
        let key = record.key;
        let clients = std::mem::take(&mut record.clients);
        inner.in_flight.remove(&key);
        for client in clients {
            if let Some(count) = inner.per_client.get_mut(&client) {
                *count -= 1;
                if *count == 0 {
                    inner.per_client.remove(&client);
                }
            }
        }
        inner.completed += 1;
        // Retention: keep only the newest `finished_cap` terminal
        // records. Waiters woken below re-check before the next
        // completion could prune this id, because pruning happens while
        // we still hold the lock only for *older* ids.
        inner.finished.push_back(id);
        while inner.finished.len() > self.finished_cap {
            if let Some(old) = inner.finished.pop_front() {
                inner.jobs.remove(&old);
            }
        }
        self.done.notify_all();
    }

    /// Blocks until job `id` reaches a terminal state; `None` for an
    /// unknown id.
    pub fn wait(&self, id: u64) -> Option<JobState> {
        let mut inner = self.inner.lock();
        loop {
            match inner.jobs.get(&id) {
                None => return None,
                Some(record) => match &record.state {
                    JobState::Done(_) | JobState::Failed(_) => {
                        return Some(record.state.clone());
                    }
                    _ => {}
                },
            }
            self.done.wait(&mut inner);
        }
    }

    /// Non-blocking state poll; `None` for an unknown id.
    pub fn status(&self, id: u64) -> Option<JobState> {
        self.inner.lock().jobs.get(&id).map(|r| r.state.clone())
    }

    /// The `(digest, engine)` key of job `id`; `None` for an unknown id.
    pub fn job_key(&self, id: u64) -> Option<VerdictKey> {
        self.inner.lock().jobs.get(&id).map(|r| r.key)
    }

    /// Stops admission (submissions return [`Admission::Closed`]) and
    /// wakes blocked workers so they can drain and exit.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        self.work.notify_all();
    }

    /// `(jobs_completed, jobs_rejected, jobs_coalesced)` counters. A
    /// coalesce is any admission that attached to an in-flight job
    /// instead of enqueueing a duplicate replay.
    pub fn counters(&self) -> (u64, u64, u64) {
        let inner = self.inner.lock();
        (inner.completed, inner.rejected, inner.coalesced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clean_trace::{EngineKind, TraceDigest};
    use std::sync::Arc;

    fn key(n: u128) -> VerdictKey {
        VerdictKey {
            digest: TraceDigest(n),
            engine: EngineKind::Clean,
        }
    }

    fn done(events: u64) -> Result<Verdict, String> {
        Ok(Verdict {
            races: vec![],
            events,
        })
    }

    #[test]
    fn fifo_admit_run_complete() {
        let q = JobQueue::new(8, 8, 100);
        let Admission::Admitted { job: a, .. } = q.submit(key(1), "c1") else {
            panic!("admitted");
        };
        let Admission::Admitted { job: b, .. } = q.submit(key(2), "c1") else {
            panic!("admitted");
        };
        assert_eq!(q.status(a), Some(JobState::Queued));
        let first = q.next_job().unwrap();
        assert_eq!(first.id, a);
        assert_eq!(q.status(a), Some(JobState::Running));
        q.complete(a, done(10));
        assert_eq!(
            q.wait(a),
            Some(JobState::Done(Verdict {
                races: vec![],
                events: 10
            }))
        );
        let second = q.next_job().unwrap();
        assert_eq!(second.id, b);
        q.complete(b, Err("boom".into()));
        assert_eq!(q.wait(b), Some(JobState::Failed("boom".into())));
        assert_eq!(q.counters(), (2, 0, 0));
    }

    #[test]
    fn identical_requests_coalesce() {
        let q = JobQueue::new(8, 8, 100);
        let Admission::Admitted { job: a, .. } = q.submit(key(1), "c1") else {
            panic!("admitted");
        };
        let Admission::Admitted { job: b, .. } = q.submit(key(1), "c2") else {
            panic!("admitted");
        };
        assert_eq!(a, b, "same key attaches, not re-enqueues");
        assert!(q.next_job().is_some());
        assert!(
            matches!(
                q.submit(key(1), "c3"),
                Admission::Admitted { job, .. } if job == a
            ),
            "attach also works while running"
        );
        assert_eq!(q.counters().2, 2, "both attachments counted as coalesces");
        q.complete(a, done(1));
        // After completion the key is no longer in flight: a fresh
        // submission makes a new job.
        let Admission::Admitted { job: c, .. } = q.submit(key(1), "c1") else {
            panic!("admitted");
        };
        assert_ne!(c, a);
    }

    #[test]
    fn queue_cap_sheds_with_retry() {
        let q = JobQueue::new(1, 8, 250);
        assert!(matches!(q.submit(key(1), "c1"), Admission::Admitted { .. }));
        assert_eq!(
            q.submit(key(2), "c1"),
            Admission::Rejected { retry_millis: 250 }
        );
        // Zero-cap queue rejects everything deterministically.
        let q0 = JobQueue::new(0, 8, 99);
        assert_eq!(
            q0.submit(key(1), "c1"),
            Admission::Rejected { retry_millis: 99 }
        );
        assert_eq!(q0.counters().1, 1);
    }

    #[test]
    fn per_client_cap_counts_attachments() {
        let q = JobQueue::new(64, 2, 100);
        assert!(matches!(q.submit(key(1), "c1"), Admission::Admitted { .. }));
        assert!(matches!(q.submit(key(2), "c1"), Admission::Admitted { .. }));
        // Third distinct job: over the cap.
        assert!(matches!(q.submit(key(3), "c1"), Admission::Rejected { .. }));
        // Attaching to a job the client already holds is idempotent.
        assert!(matches!(q.submit(key(1), "c1"), Admission::Admitted { .. }));
        // A *new* attachment also counts against the cap.
        assert!(matches!(q.submit(key(1), "c2"), Admission::Admitted { .. }));
        assert!(matches!(q.submit(key(2), "c2"), Admission::Admitted { .. }));
        assert!(matches!(q.submit(key(3), "c2"), Admission::Rejected { .. }));
        // Completion releases the cap.
        let j = q.next_job().unwrap();
        q.complete(j.id, done(0));
        assert!(matches!(q.submit(key(4), "c1"), Admission::Admitted { .. }));
    }

    #[test]
    fn close_drains_then_stops() {
        let q = Arc::new(JobQueue::new(8, 8, 100));
        let Admission::Admitted { job, .. } = q.submit(key(1), "c1") else {
            panic!("admitted");
        };
        q.close();
        assert_eq!(q.submit(key(2), "c1"), Admission::Closed);
        // The already-admitted job still drains.
        let j = q.next_job().unwrap();
        assert_eq!(j.id, job);
        q.complete(j.id, done(5));
        // Queue empty + closed → workers see the exit signal.
        assert!(q.next_job().is_none());
    }

    #[test]
    fn finished_records_are_pruned_fifo() {
        let q = JobQueue::new(64, 64, 100).finished_cap(2);
        let mut ids = vec![];
        for n in 0..4u128 {
            let Admission::Admitted { job, .. } = q.submit(key(n), "c1") else {
                panic!("admitted");
            };
            ids.push(job);
            let j = q.next_job().unwrap();
            q.complete(j.id, done(n as u64));
        }
        // Only the two newest finished records survive.
        assert_eq!(q.status(ids[0]), None, "oldest record pruned");
        assert_eq!(q.status(ids[1]), None, "second-oldest record pruned");
        assert!(matches!(q.status(ids[2]), Some(JobState::Done(_))));
        assert!(matches!(q.status(ids[3]), Some(JobState::Done(_))));
        // wait() on a pruned id reports unknown rather than blocking.
        assert_eq!(q.wait(ids[0]), None);
        assert_eq!(q.job_key(ids[0]), None);
        // Queued/running jobs are never pruned, no matter how many
        // completions happen around them.
        let Admission::Admitted { job: live, .. } = q.submit(key(100), "c1") else {
            panic!("admitted");
        };
        for n in 200..204u128 {
            let Admission::Admitted { job, .. } = q.submit(key(n), "c2") else {
                panic!("admitted");
            };
            let j = q.next_job().unwrap();
            assert_eq!(j.id, if n == 200 { live } else { job });
            if j.id == live {
                // Claim `live` first (FIFO), then complete the rest.
                let j2 = q.next_job().unwrap();
                q.complete(j2.id, done(0));
            } else {
                q.complete(j.id, done(0));
            }
        }
        assert!(matches!(q.status(live), Some(JobState::Running)));
        q.complete(live, done(0));
        assert!(matches!(q.status(live), Some(JobState::Done(_))));
    }

    #[test]
    fn waiters_block_until_completion() {
        let q = Arc::new(JobQueue::new(8, 8, 100));
        let Admission::Admitted { job, .. } = q.submit(key(7), "c1") else {
            panic!("admitted");
        };
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.wait(job))
        };
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let j = q.next_job().unwrap();
                q.complete(j.id, done(42));
            })
        };
        worker.join().unwrap();
        match waiter.join().unwrap() {
            Some(JobState::Done(v)) => assert_eq!(v.events, 42),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
