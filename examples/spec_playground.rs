//! Spec playground: hand-build event graphs and watch the consistency
//! conditions accept or reject them.
//!
//! ```text
//! cargo run --example spec_playground
//! ```
//!
//! Useful for getting a feel for the paper's conditions without running
//! the memory model at all — the graphs here are the ones drawn in §3.1's
//! prose.

use compass::dot::to_dot;
use compass::queue_spec::{check_queue_consistent, QueueEvent};
use compass::report::render_failure;
use compass::{EventId, Graph};
use orc11::Val;

fn id(i: u64) -> EventId {
    EventId::from_raw(i)
}

fn main() {
    // A consistent history: two ordered enqueues, dequeued in order by a
    // consumer that synchronized with both.
    let mut good: Graph<QueueEvent> = Graph::new();
    good.add_event(QueueEvent::Enq(Val::Int(41)), 1, 1, [id(0)]);
    good.add_event(QueueEvent::Enq(Val::Int(42)), 1, 2, [id(0), id(1)]);
    good.add_event(QueueEvent::Deq(Val::Int(41)), 2, 3, [id(0), id(1), id(2)]);
    good.add_event(
        QueueEvent::Deq(Val::Int(42)),
        3,
        4,
        [id(0), id(1), id(2), id(3)],
    );
    good.add_so(id(0), id(2));
    good.add_so(id(1), id(3));
    println!("— a FIFO history —");
    match check_queue_consistent(&good) {
        Ok(()) => println!("QueueConsistent: ✓\n{}", to_dot(&good, "fifo")),
        Err(v) => println!("{}", render_failure(&good, &v, &[])),
    }

    // The same history with the dequeues swapped: the second enqueue is
    // taken while the (hb-earlier) first is still in the queue.
    let mut bad: Graph<QueueEvent> = Graph::new();
    bad.add_event(QueueEvent::Enq(Val::Int(41)), 1, 1, [id(0)]);
    bad.add_event(QueueEvent::Enq(Val::Int(42)), 1, 2, [id(0), id(1)]);
    bad.add_event(QueueEvent::Deq(Val::Int(42)), 2, 3, [id(0), id(1), id(2)]);
    bad.add_so(id(1), id(2));
    println!("\n— the same shape dequeued out of order —");
    match check_queue_consistent(&bad) {
        Ok(()) => println!("QueueConsistent: ✓ (unexpected!)"),
        Err(v) => println!("{}", render_failure(&bad, &v, &[])),
    }

    // An empty dequeue that happens-after an un-dequeued enqueue: the
    // QUEUE-EMPDEQ condition — the engine behind Figure 1's guarantee.
    let mut emp: Graph<QueueEvent> = Graph::new();
    emp.add_event(QueueEvent::Enq(Val::Int(7)), 1, 1, [id(0)]);
    emp.add_event(QueueEvent::EmpDeq, 2, 2, [id(0), id(1)]);
    println!("\n— an empty dequeue that has seen an undelivered enqueue —");
    match check_queue_consistent(&emp) {
        Ok(()) => println!("QueueConsistent: ✓ (unexpected!)"),
        Err(v) => println!("{}", render_failure(&emp, &v, &[])),
    }

    // The same empty dequeue WITHOUT the lhb edge: a weak (relaxed)
    // dequeue that simply had not seen the enqueue — allowed.
    let mut weak: Graph<QueueEvent> = Graph::new();
    weak.add_event(QueueEvent::Enq(Val::Int(7)), 1, 1, [id(0)]);
    weak.add_event(QueueEvent::EmpDeq, 2, 2, [id(1)]);
    println!("\n— the same empty dequeue, unsynchronized —");
    match check_queue_consistent(&weak) {
        Ok(()) => println!(
            "QueueConsistent: ✓ — a weak dequeue may miss concurrent enqueues; only \
             *synchronized* emptiness is forbidden"
        ),
        Err(v) => println!("{}", render_failure(&weak, &v, &[])),
    }
}
