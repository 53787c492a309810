//! Edge-case tests for the mailbox transport: self-sends, degenerate
//! worlds, timeout accounting, and draining after the sending worker has
//! already exited.

use std::time::Duration;

use pangulu_comm::{BlockMsg, BlockRole, FaultPlan, MailboxSet};

fn msg(bi: usize, bj: usize) -> BlockMsg {
    BlockMsg { bi, bj, role: BlockRole::LPanel, values: vec![1.0, 2.0, 3.0].into() }
}

#[test]
fn send_to_self_is_delivered() {
    let mut boxes = MailboxSet::new(3).into_mailboxes();
    let me = &mut boxes[1];
    me.send(1, msg(4, 2));
    let got = me.try_recv().expect("self-send must be delivered");
    assert_eq!((got.bi, got.bj), (4, 2));
    assert_eq!(me.sent_log().len(), 1);
    assert_eq!(me.recv_log().len(), 1);
    assert_eq!(me.sent_log()[0], me.recv_log()[0], "self-send logs agree");
}

#[test]
fn send_to_self_survives_fault_plans() {
    let plan = FaultPlan::adversarial(9);
    let mut boxes = MailboxSet::with_faults(2, plan).into_mailboxes();
    let me = &mut boxes[0];
    for i in 0..8 {
        me.send(0, msg(i, i));
    }
    me.flush_pending();
    let mut got = 0;
    while got < 8 {
        if me.recv(Duration::from_millis(500)).is_some() {
            got += 1;
        } else {
            panic!("self-send lost under adversarial plan after {got} deliveries");
        }
    }
}

#[test]
#[should_panic(expected = "at least one rank")]
fn zero_rank_world_is_rejected() {
    let _ = MailboxSet::<f64>::new(0);
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_destination_is_rejected() {
    let mut boxes = MailboxSet::new(2).into_mailboxes();
    boxes[0].send(2, msg(0, 0));
}

#[test]
fn recv_timeout_returns_none_and_counts() {
    let mut boxes = MailboxSet::<f64>::new(2).into_mailboxes();
    let mb = &mut boxes[0];
    assert_eq!(mb.recv_timeouts(), 0);
    let before = mb.sync_wait();
    let got = mb.recv(Duration::from_millis(25));
    assert!(got.is_none(), "empty mailbox must time out");
    assert_eq!(mb.recv_timeouts(), 1);
    assert!(
        mb.sync_wait() >= before + Duration::from_millis(20),
        "blocked time must be accounted as sync wait"
    );
    // A second timeout keeps counting.
    let _ = mb.recv(Duration::from_millis(5));
    assert_eq!(mb.recv_timeouts(), 2);
}

#[test]
fn mailbox_drains_after_worker_exit() {
    let mut boxes = MailboxSet::new(2).into_mailboxes();
    let mut receiver = boxes.pop().unwrap(); // rank 1
    let mut sender = boxes.pop().unwrap(); // rank 0
    let handle = std::thread::spawn(move || {
        for i in 0..32 {
            sender.send(1, msg(i, 0));
        }
        // `sender` is dropped here: the worker has exited.
    });
    handle.join().unwrap();
    // Everything sent before the exit must still be receivable.
    let mut got = Vec::new();
    while let Some(m) = receiver.try_recv() {
        got.push(m.bi);
    }
    assert_eq!(got, (0..32).collect::<Vec<_>>(), "in-flight messages survive sender exit");
}

#[test]
fn reorder_buffer_drains_after_worker_exit_with_flush() {
    let plan = FaultPlan::reliable(5).with_reordering(8);
    let mut boxes = MailboxSet::with_faults(2, plan).into_mailboxes();
    let mut receiver = boxes.pop().unwrap();
    let mut sender = boxes.pop().unwrap();
    std::thread::spawn(move || {
        for i in 0..6 {
            sender.send(1, msg(i, 0));
        }
        // The executor's exit path: release anything still buffered.
        sender.flush_pending();
    })
    .join()
    .unwrap();
    let mut got: Vec<usize> = std::iter::from_fn(|| receiver.try_recv()).map(|m| m.bi).collect();
    got.sort_unstable();
    assert_eq!(got, (0..6).collect::<Vec<_>>());
}

#[test]
fn send_to_dead_receiver_is_not_fatal() {
    let mut boxes = MailboxSet::new(2).into_mailboxes();
    let receiver = boxes.pop().unwrap();
    let mut sender = boxes.pop().unwrap();
    drop(receiver); // rank 1 is gone
    sender.send(1, msg(0, 0)); // must not panic
    assert_eq!(sender.sent_msgs(), 1, "the send is still charged");
    assert!(sender.sent_log().is_empty(), "an undeliverable send is not logged as sent");
}

#[test]
fn world_size_is_visible_to_every_rank() {
    let boxes = MailboxSet::<f64>::new(5).into_mailboxes();
    for (i, mb) in boxes.iter().enumerate() {
        assert_eq!(mb.rank(), i);
        assert_eq!(mb.world_size(), 5);
    }
}

#[test]
fn single_rank_world_works() {
    let mut boxes = MailboxSet::new(1).into_mailboxes();
    let mb = &mut boxes[0];
    assert_eq!(mb.world_size(), 1);
    mb.send(0, msg(1, 1));
    assert_eq!(mb.recv(Duration::from_millis(100)).map(|m| m.bi), Some(1));
}
