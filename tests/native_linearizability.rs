//! Integration tests: histories recorded on real threads linearize.
//!
//! `NativeTbwf` runs the full stack (monitor mesh, Ω∆, query-abortable
//! object) on OS threads. Each client stamps its invocation and its
//! response from one shared `SeqCst` counter, so the stamps respect real
//! time: an operation that responded before another was invoked has the
//! smaller response stamp. The Wing–Gong checker then searches for a
//! linearization of the recorded history.

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tbwf::native::NativeTbwf;
use tbwf::prelude::*;

const CLIENTS: usize = 3;
const OPS_PER_CLIENT: i64 = 8;

/// Runs `CLIENTS` client threads, each invoking `op(p, i)` for
/// `i in 0..OPS_PER_CLIENT`, and returns the stamped history.
fn record_history<T>(ty: T, op: fn(usize, i64) -> T::Op) -> Vec<HistoryEvent<T>>
where
    T: ObjectType,
{
    let system = NativeTbwf::start(ty, CLIENTS, OmegaKind::Atomic);
    let clock = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|p| {
            let mut client = system.client(p);
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                (0..OPS_PER_CLIENT)
                    .map(|i| {
                        let op = op(p, i);
                        let invoked = clock.fetch_add(1, Ordering::SeqCst);
                        let resp = client.invoke(op.clone()).expect("system is running");
                        let responded = clock.fetch_add(1, Ordering::SeqCst);
                        HistoryEvent {
                            proc: ProcId(p),
                            op,
                            resp,
                            invoked,
                            responded,
                        }
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let history: Vec<_> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread panicked"))
        .collect();
    system.shutdown();
    history
}

fn assert_linearizable<T>(ty: &T, history: &[HistoryEvent<T>])
where
    T: ObjectType + std::fmt::Debug,
    T::State: Hash + Eq,
{
    assert_eq!(history.len(), CLIENTS * OPS_PER_CLIENT as usize);
    if let Err(e) = check_linearizable(ty, history) {
        panic!("native history is not linearizable ({e:?}): {history:#?}");
    }
}

/// A distinct value per (client, op index), so every dequeue names its
/// enqueue.
fn value(p: usize, i: i64) -> i64 {
    p as i64 * 100 + i
}

#[test]
fn native_queue_history_is_linearizable() {
    let history = record_history(Queue, |p, i| {
        if i % 2 == 0 {
            QueueOp::Enq(value(p, i))
        } else {
            QueueOp::Deq
        }
    });
    assert_linearizable(&Queue, &history);
}

#[test]
fn native_stack_history_is_linearizable() {
    let history = record_history(Stack, |p, i| {
        if i % 2 == 0 {
            StackOp::Push(value(p, i))
        } else {
            StackOp::Pop
        }
    });
    assert_linearizable(&Stack, &history);
}
