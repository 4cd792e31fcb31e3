//! **executor** — the scoped-thread work-stealing pool behind
//! `Descent::Parallel`.
//!
//! Tetris's outer loop is a DAG of independent half-box descents: once
//! the engine made every suspended `TetrisSkeleton` invocation an
//! explicit, self-contained `Frame` (split dimension, component length,
//! pending 0-side witness, `cur` prefix), a pending *right sibling* —
//! the 1-side half-box the descent has not entered yet — became exactly
//! the work unit a thread pool can run elsewhere. This crate provides
//! the generic scheduling substrate for that hand-off:
//!
//! * [`WorkDeque`] — a per-worker deque with the work-stealing
//!   discipline (owner LIFO at the bottom, thieves FIFO from the top, so
//!   steals grab the *shallowest* pending frame: the largest subtree).
//!   Hand-rolled over a mutex because the workspace forbids `unsafe` and
//!   builds offline (no crossbeam); Tetris tasks are coarse enough that
//!   the lock never contends meaningfully.
//! * [`Pool`] — scoped workers ([`std::thread::scope`], so tasks may
//!   borrow the shared read-only state: oracle, preloaded box store),
//!   pending-count termination, and an idle/queued accounting pair that
//!   drives *demand-based donation*: descents only split off frames when
//!   [`Worker::hungry`] reports a starving worker.
//! * [`Worker::help_while`] — help-first joining: a descent that reaches
//!   a donated frame before the thief is done runs other tasks while it
//!   waits, so joins never park a core. Tasks wait only on tasks they
//!   spawned (the wait-for relation is a forest), so helping cannot
//!   deadlock.
//!
//! The crate is deliberately Tetris-agnostic — tasks are any `Send`
//! type — so the descent-specific ownership/merge protocol lives with
//! the engine (`tetris-core`), not the scheduler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deque;
mod pool;

pub use deque::WorkDeque;
pub use pool::{Pool, Worker};
