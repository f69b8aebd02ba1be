//! Defensive paths: garbage frames, misrouted packets, and orphan data
//! must be counted and contained, never panicking or corrupting results.

use ask::prelude::*;
use ask::switch::AskSwitch;
use ask_simnet::frame::Frame;
use bytes::Bytes;

#[test]
fn garbage_frames_are_counted_and_ignored() {
    let mut service = AskServiceBuilder::new(2)
        .config(AskConfig::tiny())
        .seed(1)
        .build();
    let hosts = service.hosts().to_vec();
    let switch = service.switch_id();

    // Inject undecodable junk into the switch from a host.
    for junk in [
        Bytes::from_static(b""),
        Bytes::from_static(b"ab"),
        Bytes::from_static(&[0xff; 64]),
    ] {
        service
            .network_mut()
            .with_node::<AskDaemon, _>(hosts[1], |_daemon, ctx| {
                let _ = ctx.send(switch, Frame::new(junk.clone()));
            });
    }
    service.run_to_idle();
    let sw: &AskSwitch = service.network_mut().node(switch);
    assert_eq!(sw.unroutable(), 0);
    assert_eq!(sw.undecodable(), 3, "every junk frame counted");

    // The service still works afterwards.
    let task = TaskId(1);
    let stream = vec![KvTuple::new(Key::from_u64(1), 5)];
    service.submit_task(task, hosts[0], &[hosts[1]]);
    service.submit_stream(task, hosts[1], stream);
    service
        .run_until_complete(task, hosts[0], 5_000_000)
        .unwrap();
    assert_eq!(
        service.result(task, hosts[0]).unwrap()[&Key::from_u64(1)],
        5
    );
}

#[test]
fn misrouted_data_is_orphaned_and_acked() {
    // A forged data packet for a task the receiver never registered (a
    // misconfigured or malicious sender): the receiver must ACK it (no
    // retransmission livelock), count the tuples as orphans, and keep its
    // real tasks intact.
    use ask_wire::codec::{encode_envelope, Envelope};
    use ask_wire::packet::{AskPacket, ChannelId, DataPacket, SeqNo, CHANNEL_STRIDE};

    let cfg = AskConfig::tiny();
    let layout = cfg.layout;
    let mut service = AskServiceBuilder::new(2).config(cfg).seed(2).build();
    let hosts = service.hosts().to_vec();
    let switch = service.switch_id();

    // A legitimate task first.
    let task = TaskId(1);
    service.submit_task(task, hosts[0], &[hosts[1]]);
    service.submit_stream(task, hosts[1], vec![KvTuple::new(Key::from_u64(1), 1)]);
    service
        .run_until_complete(task, hosts[0], 5_000_000)
        .unwrap();

    // Forge a data packet for unregistered task 99 from host 1 to host 0,
    // on a channel the real daemon is not using (so its sequence space is
    // untouched).
    let mut slots = vec![None; layout.slot_count()];
    slots[0] = Some(KvTuple::new(Key::from_u64(7), 42));
    let forged = AskPacket::Data(DataPacket {
        task: TaskId(99),
        channel: ChannelId(hosts[1].index() as u32 * CHANNEL_STRIDE + 7),
        seq: SeqNo(0),
        slots,
    });
    let env = Envelope::new(hosts[1].index() as u32, hosts[0].index() as u32, forged);
    let wire = env.wire_bytes(&layout);
    let bytes = encode_envelope(&env, &layout);
    service
        .network_mut()
        .with_node::<AskDaemon, _>(hosts[1], |_daemon, ctx| {
            let _ = ctx.send(switch, Frame::with_wire_bytes(bytes, wire));
        });
    service.run_to_idle();

    let recv = service.daemon(hosts[0]);
    assert_eq!(recv.orphan_tuples(), 1, "forged tuple counted as orphaned");
    // The completed result is untouched.
    let result = service.result(task, hosts[0]).unwrap();
    assert_eq!(result.len(), 1);
    assert_eq!(result[&Key::from_u64(1)], 1);
}

#[test]
fn foreign_layout_data_is_relayed_raw_not_aggregated() {
    // Regression: a CRC-valid data frame whose declared slot layout is not
    // the switch's own used to be aggregated against the switch's register
    // map. A wider layout indexed past the aggregator arrays and panicked
    // the switch; an equally wide one with a short slot where the switch
    // has a medium group would have claimed registers with a blank key
    // segment. The switch now relays such frames raw, untouched by dedup
    // state, and the receiver merges them from the frame's own layout.
    use ask_wire::codec::encode_envelope_parts;
    use ask_wire::packet::{AskPacket, ChannelId, DataPacket, PacketLayout, SeqNo, CHANNEL_STRIDE};

    for (layout, slot) in [
        (PacketLayout::short_only(16), 10),
        (PacketLayout::short_only(6), 5),
    ] {
        let mut service = AskServiceBuilder::new(2)
            .config(AskConfig::tiny())
            .seed(4)
            .build();
        let hosts = service.hosts().to_vec();
        let switch = service.switch_id();
        let task = TaskId(1);
        service.submit_task(task, hosts[0], &[hosts[1]]);
        // Run until the switch has granted the task's region. Not
        // `run_to_idle`: an unfinished task's announce timer re-arms forever.
        for _ in 0..100 {
            if service.switch_stats(task).is_some() {
                break;
            }
            service.network_mut().run(None, Some(200));
        }
        assert!(service.switch_stats(task).is_some(), "region granted");

        // Forge the frame from host 1, on a channel its daemon does not use.
        let forged_key = Key::from_u64(7);
        let mut slots = vec![None; layout.slot_count()];
        slots[slot] = Some(KvTuple::new(forged_key.clone(), 42));
        let forged = AskPacket::Data(DataPacket {
            task,
            channel: ChannelId(hosts[1].index() as u32 * CHANNEL_STRIDE + 7),
            seq: SeqNo(0),
            slots,
        });
        let (from, to) = (hosts[1].index() as u32, hosts[0].index() as u32);
        let bytes = encode_envelope_parts(from, to, 0, 0, &forged, &layout);
        let wire = forged.wire_bytes(&layout);
        service
            .network_mut()
            .with_node::<AskDaemon, _>(hosts[1], |_daemon, ctx| {
                let _ = ctx.send(switch, Frame::with_wire_bytes(bytes.clone(), wire));
            });

        service.submit_stream(task, hosts[1], vec![KvTuple::new(Key::from_u64(1), 5)]);
        service
            .run_until_complete(task, hosts[0], 5_000_000)
            .unwrap();
        assert_eq!(service.switch_ref().foreign_layout_relayed(), 1);
        let result = service.result(task, hosts[0]).unwrap();
        assert_eq!(result.len(), 2, "{layout:?}");
        assert_eq!(
            result[&forged_key], 42,
            "the forged tuple reaches the receiver"
        );
        assert_eq!(result[&Key::from_u64(1)], 5);
    }
}

// ---------------------------------------------------------------------------
// Switch-crash matrix: the switch dies at a chosen fraction of the clean
// run's completion time, loses every register array and dedup window, and
// comes back in a new epoch. Whatever the crash instant, the per-key result
// must equal the fault-free run exactly.
// ---------------------------------------------------------------------------

mod switch_crash {
    use ask::prelude::*;
    use ask::service::AskService;
    use ask_simnet::faults::FaultModel;
    use ask_simnet::frame::{Frame, NodeId};
    use ask_simnet::link::LinkConfig;
    use ask_simnet::time::{SimDuration, SimTime};
    use std::collections::HashMap;

    const BUDGET: u64 = 50_000_000;

    fn streams() -> Vec<Vec<KvTuple>> {
        (0..2u64)
            .map(|s| {
                (0..150u64)
                    .map(|i| KvTuple::new(Key::from_u64((s * 37 + i * 5) % 60), (i % 9 + 1) as u32))
                    .collect()
            })
            .collect()
    }

    /// Builds the standard crash workload: one receiver, two senders, a
    /// 60-key SUM stream per sender.
    fn build(
        escalate: Option<u32>,
        link: LinkConfig,
        seed: u64,
    ) -> (AskService, Vec<NodeId>, TaskId, HashMap<Key, u32>) {
        let mut cfg = AskConfig::tiny();
        cfg.escalate_after = escalate;
        let mut service = AskServiceBuilder::new(3)
            .config(cfg)
            .link(link)
            .seed(seed)
            .build();
        let hosts = service.hosts().to_vec();
        let task = TaskId(7);
        let st = streams();
        let expected = reference_aggregate(st.iter().flatten().cloned());
        service.submit_task(task, hosts[0], &[hosts[1], hosts[2]]);
        service.submit_stream(task, hosts[1], st[0].clone());
        service.submit_stream(task, hosts[2], st[1].clone());
        (service, hosts, task, expected)
    }

    fn clean_link() -> LinkConfig {
        LinkConfig::new(100e9, SimDuration::from_micros(1))
    }

    /// Completion time of the fault-free golden run (also asserts its
    /// result, so every crash case compares against a verified baseline).
    fn clean_completion(seed: u64) -> SimTime {
        let (mut service, hosts, task, expected) = build(None, clean_link(), seed);
        let done = service.run_until_complete(task, hosts[0], BUDGET).unwrap();
        assert_eq!(service.result(task, hosts[0]).unwrap(), expected);
        done
    }

    /// Runs the workload with one switch outage starting at `permille`
    /// thousandths of the clean completion time, then asserts the per-key
    /// result matches the fault-free run.
    fn run_with_outage(
        permille: u64,
        outage: SimDuration,
        escalate: Option<u32>,
        seed: u64,
    ) -> (AskService, Vec<NodeId>, TaskId) {
        let t = clean_completion(seed).as_nanos();
        let (mut service, hosts, task, expected) = build(escalate, clean_link(), seed);
        let down = SimTime::from_nanos((t * permille / 1000).max(1));
        service.schedule_switch_outage(down, down + outage);
        service.run_until_complete(task, hosts[0], BUDGET).unwrap();
        assert_eq!(
            service.result(task, hosts[0]).unwrap(),
            expected,
            "per-key aggregate must equal the fault-free run (crash at {permille}‰)"
        );
        (service, hosts, task)
    }

    #[test]
    fn crash_before_first_verdict() {
        // Down at t=1ns: the switch never sees the region request. The
        // announce/region retry timers must carry the whole setup through
        // the restarted epoch.
        let (mut service, _, _) = run_with_outage(0, SimDuration::from_micros(50), None, 11);
        service.run_to_idle();
        assert_eq!(service.switch_epoch(), 1);
    }

    #[test]
    fn crash_mid_window() {
        let (mut service, _, _) = run_with_outage(500, SimDuration::from_micros(50), None, 12);
        service.run_to_idle();
        assert_eq!(service.switch_epoch(), 1);
        assert!(
            service.switch_ref().stale_epoch_drops() > 0,
            "old-epoch retransmits must be rejected by the restarted switch"
        );
    }

    #[test]
    fn crash_during_fetch_drain() {
        // 90% of the clean runtime: shadow-copy swaps and fetch drains are
        // in flight when the registers vanish.
        let (mut service, _, _) = run_with_outage(900, SimDuration::from_micros(50), None, 13);
        service.run_to_idle();
        assert_eq!(service.switch_epoch(), 1);
    }

    #[test]
    fn double_crash_recovers_twice() {
        let t = clean_completion(14).as_nanos();
        let (mut service, hosts, task, expected) = build(None, clean_link(), 14);
        let outage = SimDuration::from_micros(30);
        let down1 = SimTime::from_nanos((t * 400 / 1000).max(1));
        service.schedule_switch_outage(down1, down1 + outage);
        // Run just past the first recovery's start, then pull the rug again
        // while the replay is in flight.
        service
            .network_mut()
            .run(Some(down1 + outage + outage), None);
        let down2 = service.now() + SimDuration::from_micros(5);
        service.schedule_switch_outage(down2, down2 + outage);
        service.run_until_complete(task, hosts[0], BUDGET).unwrap();
        assert_eq!(
            service.result(task, hosts[0]).unwrap(),
            expected,
            "double crash must still converge to the fault-free result"
        );
        service.run_to_idle();
        assert_eq!(service.switch_epoch(), 2);
    }

    #[test]
    fn long_outage_enters_degraded_mode() {
        // The outage spans several retransmit timeouts with escalation after
        // two attempts: senders must flag their windows for degraded
        // pass-through while the switch is dark, and still converge.
        let (service, hosts, _) = run_with_outage(400, SimDuration::from_micros(600), Some(2), 15);
        let degraded: u64 = hosts
            .iter()
            .map(|h| service.host_stats(*h).degraded_entries)
            .sum();
        assert!(
            degraded > 0,
            "a 6xRTO outage with escalate_after=2 must trip degraded mode"
        );
    }

    #[test]
    fn lossy_network_relays_no_aggregate_packets() {
        // No crash at all: heavy loss plus a hair-trigger escalation
        // threshold pushes senders into degraded mode, so the switch must
        // relay flagged packets through the dedup gate without aggregating —
        // and the result must still be exact.
        let link = LinkConfig::new(100e9, SimDuration::from_micros(1))
            .with_faults(FaultModel::reliable().with_loss(0.2));
        let (mut service, hosts, task, expected) = build(Some(1), link, 16);
        service.run_until_complete(task, hosts[0], BUDGET).unwrap();
        assert_eq!(service.result(task, hosts[0]).unwrap(), expected);
        assert_eq!(service.switch_epoch(), 0, "no crash was injected");
        assert!(
            service.switch_ref().noagg_relayed() > 0,
            "escalated senders must drive the no-aggregate relay path"
        );
    }

    #[test]
    fn stale_epoch_verdict_after_restart_is_dropped() {
        // Regression for a seeded bug: a pre-crash verdict (an ACK computed
        // by the dead incarnation) delivered after the restart must be
        // dropped by the host's epoch gate and counted, not applied.
        use ask_wire::codec::encode_envelope_parts;
        use ask_wire::packet::{AskPacket, ChannelId, SeqNo, CHANNEL_STRIDE};

        let (mut service, hosts, _) = run_with_outage(500, SimDuration::from_micros(50), None, 17);
        service.run_to_idle();
        assert_eq!(service.daemon(hosts[1]).known_epoch(), 1);
        let before = service.host_stats(hosts[1]).stale_epoch_drops;

        // Forge an epoch-0 ACK "from the switch" and deliver it to a host
        // that has already resynchronized to epoch 1.
        let layout = service.config().layout;
        let switch = service.switch_id();
        let stale_ack = AskPacket::Ack {
            channel: ChannelId(hosts[1].index() as u32 * CHANNEL_STRIDE),
            seq: SeqNo(0),
            ece: false,
        };
        let bytes = encode_envelope_parts(
            switch.index() as u32,
            hosts[1].index() as u32,
            0,
            0,
            &stale_ack,
            &layout,
        );
        let target = hosts[1];
        service
            .network_mut()
            .with_node::<AskSwitch, _>(switch, |_sw, ctx| {
                let _ = ctx.send(target, Frame::new(bytes.clone()));
            });
        service.run_to_idle();
        assert_eq!(
            service.host_stats(hosts[1]).stale_epoch_drops,
            before + 1,
            "the stale ACK must be dropped and counted, not applied"
        );
    }
}

#[test]
fn trace_ring_buffer_bounds_memory() {
    let mut cfg = AskConfig::tiny();
    cfg.trace_capacity = 16; // absurdly small: must drop, not grow
    let mut service = AskServiceBuilder::new(2).config(cfg).seed(3).build();
    let hosts = service.hosts().to_vec();
    let task = TaskId(1);
    let stream: Vec<KvTuple> = (0..500)
        .map(|i| KvTuple::new(Key::from_u64(i % 50), 1))
        .collect();
    service.submit_task(task, hosts[0], &[hosts[1]]);
    service.submit_stream(task, hosts[1], stream);
    service
        .run_until_complete(task, hosts[0], 10_000_000)
        .unwrap();
    let trace = service.daemon(hosts[1]).trace();
    assert_eq!(trace.len(), 16);
    assert!(trace.dropped() > 0, "the ring must have evicted");
}
