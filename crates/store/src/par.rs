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
/// A panic in `f` propagates to the caller once every worker has stopped.
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
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some((at, item)) = queue.lock().expect("par_map queue").pop() else { break };
                let out = f(item);
                *slots[at].lock().expect("par_map slot") = Some(out);
            });
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
}
