//! The workspace's one ordered parallel map.
//!
//! Shard encoding, shard scans, per-task combiner runs, training
//! sub-windows and search trials all fan independent work out over a
//! bounded set of scoped threads and then merge the results in a fixed
//! order. They share this one implementation.

use std::sync::Mutex;

/// Applies `f` to every item over at most `workers` scoped threads and
/// returns the results **in input order**, whichever worker finished
/// first. Callers that merge the results sequentially are therefore
/// deterministic under any thread schedule. With `workers <= 1` (or fewer
/// than two items) everything runs inline on the calling thread.
///
/// A panic in `f` propagates to the caller, with its own payload, once
/// every worker has exited.
pub fn par_map<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Reversed so `pop` hands items out front to back.
    let queue = Mutex::new(items.into_iter().enumerate().rev().collect::<Vec<_>>());
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let Some((at, item)) = queue.lock().expect("par_map queue").pop() else {
                        break;
                    };
                    let out = f(item);
                    *slots[at].lock().expect("par_map slot") = Some(out);
                })
            })
            .collect();
        // Join every worker by hand: the scope's own wait returns once the
        // closures are done, before the threads have exited and handed
        // their malloc arenas back. The next `par_map`'s workers would then
        // sometimes find no free arena and open a new one, so a process's
        // peak RSS would depend on thread timing.
        let mut panics = handles.into_iter().filter_map(|h| h.join().err()).collect::<Vec<_>>();
        if !panics.is_empty() {
            std::panic::resume_unwind(panics.swap_remove(0));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("par_map slot").expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..50).collect();
        let serial = par_map(1, items.clone(), |x| x * x);
        for workers in [0, 2, 3, 8, 64] {
            assert_eq!(par_map(workers, items.clone(), |x| x * x), serial, "workers = {workers}");
        }
        assert!(par_map(4, Vec::<u64>::new(), |x| x).is_empty());
    }

    #[test]
    fn a_later_item_finishing_first_keeps_its_slot() {
        // Item 0 blocks until item 1 has finished, so completion order is
        // forced to be the reverse of input order.
        let (done, wait) = std::sync::mpsc::channel();
        let wait = Mutex::new(wait);
        let out = par_map(2, vec![0u32, 1], |i| {
            if i == 0 {
                wait.lock().expect("receiver").recv().expect("item 1 finished");
            } else {
                done.send(()).expect("item 0 waiting");
            }
            i * 10
        });
        assert_eq!(out, vec![0, 10]);
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_after_the_rest_finish() {
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(2, (0..6u32).collect(), |i| {
                if i == 0 {
                    panic!("item {i} failed");
                }
                finished.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("the panic propagates");
        let message = payload.downcast_ref::<String>().expect("a formatted panic message");
        assert_eq!(message, "item 0 failed");
        assert_eq!(finished.into_inner(), 5);
    }
}
