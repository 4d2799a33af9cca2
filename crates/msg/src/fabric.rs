//! The messaging fabric: endpoints, channels, and the send/recv protocol.

use crate::channel::{Channel, ChannelConfig, ChannelId, Direction, Endpoint, EndpointId};
use crate::ring::{self, credit, HEADER_BYTES};
use crate::{MsgError, Result};
use std::collections::HashMap;
use utlb_mem::{VirtAddr, PAGE_SIZE};
use utlb_vmmc::{Cluster, ImportId};

/// Base of the fabric-managed buffer region in every endpoint's address
/// space (rings, credit pages, staging areas are bump-allocated from here;
/// application buffers live below it).
const FABRIC_BASE: u64 = 0x8000_0000;

/// A caller-owned reusable receive buffer for
/// [`Fabric::recv_reuse`] — the messaging analogue of the lookup path's
/// `OutcomeBuf`: one simulated landing region plus one byte `Vec`, both
/// kept across messages so a steady-state receive loop allocates nothing
/// per message (neither host memory nor simulated address space).
///
/// A buffer is bound to the first endpoint it receives for and rebinds
/// (with a fresh region) if used with a different one; the common pattern
/// is one `RecvBuf` per receiving endpoint.
#[derive(Debug, Default)]
pub struct RecvBuf {
    /// Landing region: owning endpoint, base address, capacity.
    region: Option<(EndpointId, VirtAddr, u64)>,
    /// The last received payload.
    bytes: Vec<u8>,
}

impl RecvBuf {
    /// An empty buffer; the landing region is allocated on first use.
    pub fn new() -> Self {
        RecvBuf::default()
    }

    /// The last received payload.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Length of the last received payload, in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the last received payload was empty (or nothing was
    /// received yet).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Base address of the simulated landing region, if one is allocated —
    /// useful for asserting reuse in tests.
    pub fn region_base(&self) -> Option<VirtAddr> {
        self.region.map(|(_, base, _)| base)
    }
}

/// The messaging fabric.
///
/// Owns the [`Cluster`] and drives both endpoints of every channel — the
/// single-threaded stand-in for two concurrently running library instances.
/// All data still moves exclusively through VMMC remote stores/fetches with
/// UTLB translation; the fabric only sequences the protocol steps.
#[derive(Debug)]
pub struct Fabric {
    cluster: Cluster,
    endpoints: Vec<Endpoint>,
    channels: HashMap<u32, Channel>,
    next_channel: u32,
}

impl Fabric {
    /// Wraps a cluster.
    pub fn new(cluster: Cluster) -> Self {
        Fabric {
            cluster,
            endpoints: Vec::new(),
            channels: HashMap::new(),
            next_channel: 1,
        }
    }

    /// The underlying cluster (statistics, fault injection).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access (e.g. staging application data).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Spawns a process on `node` and registers it as an endpoint.
    ///
    /// # Errors
    ///
    /// Propagates cluster errors for an unknown node.
    pub fn add_endpoint(&mut self, node: usize) -> Result<EndpointId> {
        let pid = self.cluster.spawn_process(node)?;
        self.endpoints.push(Endpoint {
            node,
            pid,
            next_va: FABRIC_BASE,
            recv_scratch: None,
        });
        Ok(EndpointId(self.endpoints.len() as u32 - 1))
    }

    fn endpoint(&self, id: EndpointId) -> Result<Endpoint> {
        self.endpoints
            .get(id.0 as usize)
            .copied()
            .ok_or(MsgError::UnknownEndpoint(id.0))
    }

    /// Bump-allocates `len` page-aligned bytes in `id`'s address space.
    fn alloc_va(&mut self, id: EndpointId, len: u64) -> Result<VirtAddr> {
        let ep = self
            .endpoints
            .get_mut(id.0 as usize)
            .ok_or(MsgError::UnknownEndpoint(id.0))?;
        let va = VirtAddr::new(ep.next_va);
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        ep.next_va += pages * PAGE_SIZE;
        Ok(va)
    }

    /// Builds the receiver half of one direction and the matching imports
    /// on the sender.
    fn build_direction(
        &mut self,
        src: EndpointId,
        dst: EndpointId,
        cfg: ChannelConfig,
    ) -> Result<Direction> {
        let src_ep = self.endpoint(src)?;
        let dst_ep = self.endpoint(dst)?;

        let ring_va = self.alloc_va(dst, cfg.slots * cfg.slot_bytes)?;
        let credit_va = self.alloc_va(dst, PAGE_SIZE)?;
        let bulk_va = self.alloc_va(dst, cfg.bulk_bytes)?;
        let send_stage_va = self.alloc_va(src, cfg.bulk_bytes.max(cfg.slot_bytes))?;
        let fetch_scratch_va = self.alloc_va(src, PAGE_SIZE)?;

        let ring_export =
            self.cluster
                .export(dst_ep.node, dst_ep.pid, ring_va, cfg.slots * cfg.slot_bytes)?;
        let credit_export = self
            .cluster
            .export(dst_ep.node, dst_ep.pid, credit_va, PAGE_SIZE)?;
        let bulk_export = self
            .cluster
            .export(dst_ep.node, dst_ep.pid, bulk_va, cfg.bulk_bytes)?;

        let ring_import = self
            .cluster
            .import(src_ep.node, src_ep.pid, dst_ep.node, ring_export)?;
        let credit_import =
            self.cluster
                .import(src_ep.node, src_ep.pid, dst_ep.node, credit_export)?;
        let bulk_import = self
            .cluster
            .import(src_ep.node, src_ep.pid, dst_ep.node, bulk_export)?;

        Ok(Direction {
            ring_va,
            credit_va,
            bulk_export,
            recv_seq: 1,
            consumed: 0,
            ring_import,
            credit_import,
            bulk_import,
            send_seq: 1,
            credits_seen: 0,
            send_stage_va,
            fetch_scratch_va,
            pending_large: None,
        })
    }

    /// Establishes a bidirectional channel between two endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`MsgError::InvalidConfig`] for a ring geometry that cannot
    /// carry traffic (see [`ChannelConfig::validate`]) and propagates
    /// export/import failures.
    pub fn connect(
        &mut self,
        a: EndpointId,
        b: EndpointId,
        cfg: ChannelConfig,
    ) -> Result<ChannelId> {
        cfg.validate()?;
        let ab = self.build_direction(a, b, cfg)?;
        let ba = self.build_direction(b, a, cfg)?;
        let id = ChannelId(self.next_channel);
        self.next_channel += 1;
        self.channels.insert(id.0, Channel { a, b, cfg, ab, ba });
        Ok(id)
    }

    fn channel(&self, id: ChannelId) -> Result<&Channel> {
        self.channels
            .get(&id.0)
            .ok_or(MsgError::UnknownChannel(id.0))
    }

    fn channel_mut(&mut self, id: ChannelId) -> Result<&mut Channel> {
        self.channels
            .get_mut(&id.0)
            .ok_or(MsgError::UnknownChannel(id.0))
    }

    /// Refreshes the sender's credit view with a remote fetch of the
    /// receiver's consumed counter.
    fn refresh_credits(
        &mut self,
        src: Endpoint,
        credit_import: ImportId,
        scratch: VirtAddr,
    ) -> Result<u64> {
        self.cluster.remote_fetch(
            src.node,
            src.pid,
            credit_import,
            scratch,
            credit::CONSUMED,
            8,
        )?;
        self.cluster.run_until_quiet()?;
        let mut buf = [0u8; 8];
        self.cluster
            .read_local(src.node, src.pid, scratch, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Sends `payload` on `channel` from endpoint `from`.
    ///
    /// Small messages take the eager ring; larger ones stage and announce a
    /// rendezvous that completes inside the peer's matching [`Fabric::recv`].
    ///
    /// # Errors
    ///
    /// Returns [`MsgError::WouldBlock`] when the ring is full and the peer
    /// has not consumed (call `recv` on the peer first), and
    /// [`MsgError::MessageTooLarge`] beyond the bulk window.
    pub fn send(&mut self, channel: ChannelId, from: EndpointId, payload: &[u8]) -> Result<()> {
        let ch = self.channel(channel)?;
        let cfg = ch.cfg;
        let (dir, _) = ch.direction_from(from).ok_or(MsgError::NotAMember {
            endpoint: from.0,
            channel: channel.0,
        })?;
        let dir = *dir;
        let src = self.endpoint(from)?;
        let len = payload.len() as u64;

        if len > cfg.bulk_bytes {
            return Err(MsgError::MessageTooLarge {
                len,
                max: cfg.bulk_bytes,
            });
        }
        if dir.pending_large.is_some() {
            return Err(MsgError::ProtocolViolation(
                "previous rendezvous not yet received",
            ));
        }

        // Flow control: outstanding eager slots.
        let mut credits_seen = dir.credits_seen;
        if dir.send_seq - 1 - credits_seen >= cfg.slots {
            credits_seen = self.refresh_credits(src, dir.credit_import, dir.fetch_scratch_va)?;
            if dir.send_seq - 1 - credits_seen >= cfg.slots {
                return Err(MsgError::WouldBlock);
            }
        }

        let seq = dir.send_seq;
        let slot = ring::slot_offset(seq, cfg.slots, cfg.slot_bytes);

        if len <= cfg.max_eager() {
            // Eager: payload first, header second — the in-order channel
            // turns the header's arrival into the completion flag.
            if !payload.is_empty() {
                self.cluster
                    .write_local(src.node, src.pid, dir.send_stage_va, payload)?;
                self.cluster.remote_store(
                    src.node,
                    src.pid,
                    dir.ring_import,
                    dir.send_stage_va,
                    slot + HEADER_BYTES,
                    len,
                )?;
            }
            let header = ring::encode_header(seq, len);
            // Header staging lives in the fetch-scratch page, clear of the
            // payload staging area.
            let header_va = dir.fetch_scratch_va.offset(64);
            self.cluster
                .write_local(src.node, src.pid, header_va, &header)?;
            self.cluster.remote_store(
                src.node,
                src.pid,
                dir.ring_import,
                header_va,
                slot,
                HEADER_BYTES,
            )?;
            self.cluster.run_until_quiet()?;
        } else {
            // Rendezvous: stage the payload, announce with a header whose
            // length exceeds the eager maximum.
            self.cluster
                .write_local(src.node, src.pid, dir.send_stage_va, payload)?;
            let header = ring::encode_header(seq, len);
            let header_va = dir.fetch_scratch_va.offset(64);
            self.cluster
                .write_local(src.node, src.pid, header_va, &header)?;
            self.cluster.remote_store(
                src.node,
                src.pid,
                dir.ring_import,
                header_va,
                slot,
                HEADER_BYTES,
            )?;
            self.cluster.run_until_quiet()?;
        }

        let ch = self.channel_mut(channel)?;
        let (dir_mut, _) = ch.direction_from_mut(from).expect("membership checked");
        dir_mut.send_seq += 1;
        dir_mut.credits_seen = credits_seen;
        if len > cfg.max_eager() {
            dir_mut.pending_large = Some((seq, dir.send_stage_va, len));
        }
        Ok(())
    }

    /// Grows (or lazily allocates) `to`'s reusable receive-scratch region
    /// to hold at least `len` bytes, returning its base address.
    fn recv_scratch(&mut self, to: EndpointId, len: u64) -> Result<VirtAddr> {
        if let Some((va, cap)) = self.endpoint(to)?.recv_scratch {
            if cap >= len {
                return Ok(va);
            }
        }
        let cap = len.max(PAGE_SIZE);
        let va = self.alloc_va(to, cap)?;
        self.endpoints[to.0 as usize].recv_scratch = Some((va, cap));
        Ok(va)
    }

    /// Receives the next message on `channel` for endpoint `to`, into a
    /// fresh `Vec`.
    ///
    /// Convenience path: the payload lands in a per-endpoint scratch region
    /// (reused across calls, not leaked per message) and is then copied
    /// out. Hot paths should hold a [`RecvBuf`] and call
    /// [`recv_reuse`](Fabric::recv_reuse), or go straight to
    /// [`recv_into`](Fabric::recv_into).
    ///
    /// # Errors
    ///
    /// Returns [`MsgError::WouldBlock`] if no message is pending.
    pub fn recv(&mut self, channel: ChannelId, to: EndpointId) -> Result<Vec<u8>> {
        let probe = self.peek_len(channel, to)?;
        let target = self.recv_scratch(to, probe.max(1))?;
        let n = self.recv_into(channel, to, target, probe)?;
        let dst = self.endpoint(to)?;
        let mut buf = vec![0u8; n as usize];
        self.cluster
            .read_local(dst.node, dst.pid, target, &mut buf)?;
        Ok(buf)
    }

    /// Receives the next message into a caller-owned [`RecvBuf`], reusing
    /// both its simulated landing region and its byte buffer — the
    /// allocation-free analogue of `OutcomeBuf` on the lookup path.
    /// Returns the message length; the payload is in
    /// [`RecvBuf::as_slice`].
    ///
    /// # Errors
    ///
    /// Returns [`MsgError::WouldBlock`] if no message is pending.
    pub fn recv_reuse(
        &mut self,
        channel: ChannelId,
        to: EndpointId,
        buf: &mut RecvBuf,
    ) -> Result<u64> {
        let len = self.peek_len(channel, to)?;
        let base = match buf.region {
            Some((ep, base, cap)) if ep == to && cap >= len.max(1) => base,
            _ => {
                // First use, a different endpoint, or a message larger than
                // the region: (re)allocate, then reuse until outgrown.
                let cap = len.max(PAGE_SIZE);
                let base = self.alloc_va(to, cap)?;
                buf.region = Some((to, base, cap));
                base
            }
        };
        let n = self.recv_into(channel, to, base, len)?;
        let dst = self.endpoint(to)?;
        buf.bytes.clear();
        buf.bytes.resize(n as usize, 0);
        self.cluster
            .read_local(dst.node, dst.pid, base, &mut buf.bytes)?;
        Ok(n)
    }

    /// Length of the next pending message, without consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`MsgError::WouldBlock`] if no message is pending.
    pub fn peek_len(&mut self, channel: ChannelId, to: EndpointId) -> Result<u64> {
        let ch = self.channel_mut(channel)?;
        let cfg = ch.cfg;
        let (dir, _) = ch.direction_to_mut(to).ok_or(MsgError::NotAMember {
            endpoint: to.0,
            channel: channel.0,
        })?;
        let (ring_va, recv_seq) = (dir.ring_va, dir.recv_seq);
        let dst = self.endpoint(to)?;
        let slot = ring::slot_offset(recv_seq, cfg.slots, cfg.slot_bytes);
        let mut header = [0u8; HEADER_BYTES as usize];
        self.cluster
            .read_local(dst.node, dst.pid, ring_va.offset(slot), &mut header)?;
        let (seq, len) = ring::decode_header(&header);
        if seq != recv_seq {
            return Err(MsgError::WouldBlock);
        }
        Ok(len)
    }

    /// Receives the next message directly into `target` in the receiving
    /// process' memory — the zero-copy path. Returns the message length.
    ///
    /// For rendezvous messages the bulk export is *redirected* at `target`
    /// before the clear-to-send, so the payload's only movement is the wire
    /// transfer into its final location (paper §4.1).
    ///
    /// # Errors
    ///
    /// Returns [`MsgError::WouldBlock`] if no message is pending and
    /// [`MsgError::MessageTooLarge`] if `capacity` is too small.
    pub fn recv_into(
        &mut self,
        channel: ChannelId,
        to: EndpointId,
        target: VirtAddr,
        capacity: u64,
    ) -> Result<u64> {
        let len = self.peek_len(channel, to)?;
        if len > capacity {
            return Err(MsgError::MessageTooLarge { len, max: capacity });
        }
        let (cfg, dir, from) = {
            let ch = self.channel_mut(channel)?;
            let cfg = ch.cfg;
            let (dir, from) = ch.direction_to_mut(to).expect("peek checked membership");
            (cfg, *dir, from)
        };
        let dst = self.endpoint(to)?;
        let src = self.endpoint(from)?;
        let slot = ring::slot_offset(dir.recv_seq, cfg.slots, cfg.slot_bytes);

        if len <= cfg.max_eager() {
            // Eager delivery: the payload already sits in the ring slot.
            if len > 0 {
                let mut buf = vec![0u8; len as usize];
                self.cluster.read_local(
                    dst.node,
                    dst.pid,
                    dir.ring_va.offset(slot + HEADER_BYTES),
                    &mut buf,
                )?;
                self.cluster.write_local(dst.node, dst.pid, target, &buf)?;
            }
        } else {
            // Rendezvous: redirect the bulk window at the final buffer,
            // grant clear-to-send, and let the sender push the payload.
            let (pseq, stage_va, plen) = dir
                .pending_large
                .ok_or(MsgError::ProtocolViolation("RTS without a staged payload"))?;
            if pseq != dir.recv_seq || plen != len {
                return Err(MsgError::ProtocolViolation("rendezvous sequence mismatch"));
            }
            self.cluster
                .redirect(dst.node, dst.pid, dir.bulk_export, target)?;
            self.cluster.write_local(
                dst.node,
                dst.pid,
                dir.credit_va.offset(credit::CTS_SEQ),
                &pseq.to_le_bytes(),
            )?;
            // The sender observes the grant with a remote fetch …
            let cts_scratch = dir.fetch_scratch_va.offset(8);
            self.cluster.remote_fetch(
                src.node,
                src.pid,
                dir.credit_import,
                cts_scratch,
                credit::CTS_SEQ,
                8,
            )?;
            self.cluster.run_until_quiet()?;
            let mut buf = [0u8; 8];
            self.cluster
                .read_local(src.node, src.pid, cts_scratch, &mut buf)?;
            if u64::from_le_bytes(buf) != pseq {
                return Err(MsgError::ProtocolViolation("clear-to-send not granted"));
            }
            // … and pushes the payload straight into its final location.
            self.cluster
                .remote_store(src.node, src.pid, dir.bulk_import, stage_va, 0, len)?;
            self.cluster.run_until_quiet()?;
        }

        // Consume: bump the receiver's counter and publish it for the
        // sender's next credit refresh.
        let consumed = dir.consumed + 1;
        self.cluster.write_local(
            dst.node,
            dst.pid,
            dir.credit_va.offset(credit::CONSUMED),
            &consumed.to_le_bytes(),
        )?;
        let ch = self.channel_mut(channel)?;
        let (dir_mut, _) = ch.direction_to_mut(to).expect("membership checked");
        dir_mut.recv_seq += 1;
        dir_mut.consumed = consumed;
        // Only a completed rendezvous consumes the staged payload; eager
        // messages queued ahead of an RTS must leave it pending.
        if len > cfg.max_eager() {
            dir_mut.pending_large = None;
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utlb_core::TranslationMechanism;

    fn two_endpoint_fabric() -> (Fabric, EndpointId, EndpointId, ChannelId) {
        let cluster = Cluster::new(2).expect("cluster");
        let mut fabric = Fabric::new(cluster);
        let a = fabric.add_endpoint(0).unwrap();
        let b = fabric.add_endpoint(1).unwrap();
        let ch = fabric.connect(a, b, ChannelConfig::default()).unwrap();
        (fabric, a, b, ch)
    }

    #[test]
    fn eager_roundtrip_both_directions() {
        let (mut f, a, b, ch) = two_endpoint_fabric();
        f.send(ch, a, b"ping").unwrap();
        assert_eq!(f.recv(ch, b).unwrap(), b"ping");
        f.send(ch, b, b"pong").unwrap();
        assert_eq!(f.recv(ch, a).unwrap(), b"pong");
    }

    #[test]
    fn messages_are_fifo_within_a_direction() {
        let (mut f, a, b, ch) = two_endpoint_fabric();
        for i in 0..5u8 {
            f.send(ch, a, &[i; 8]).unwrap();
        }
        for i in 0..5u8 {
            assert_eq!(f.recv(ch, b).unwrap(), vec![i; 8]);
        }
        assert!(matches!(f.recv(ch, b), Err(MsgError::WouldBlock)));
    }

    #[test]
    fn ring_full_is_wouldblock_until_consumed() {
        let (mut f, a, b, ch) = two_endpoint_fabric();
        // Default ring has 16 slots.
        for _ in 0..16 {
            f.send(ch, a, b"x").unwrap();
        }
        assert!(matches!(f.send(ch, a, b"y"), Err(MsgError::WouldBlock)));
        // Consuming frees a credit (discovered via remote fetch).
        f.recv(ch, b).unwrap();
        f.send(ch, a, b"y").unwrap();
    }

    #[test]
    fn rendezvous_large_message() {
        let (mut f, a, b, ch) = two_endpoint_fabric();
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 239) as u8).collect();
        f.send(ch, a, &big).unwrap();
        assert_eq!(f.recv(ch, b).unwrap(), big);
        // The channel remains usable for eager traffic afterwards.
        f.send(ch, a, b"after").unwrap();
        assert_eq!(f.recv(ch, b).unwrap(), b"after");
    }

    #[test]
    fn recv_into_is_zero_copy_to_the_caller_buffer() {
        let (mut f, a, b, ch) = two_endpoint_fabric();
        let big = vec![0x7Eu8; 8192];
        f.send(ch, a, &big).unwrap();
        let dst = f.endpoint(b).unwrap();
        let target = VirtAddr::new(0x2000_0000);
        let n = f.recv_into(ch, b, target, big.len() as u64).unwrap();
        assert_eq!(n, big.len() as u64);
        let mut got = vec![0u8; big.len()];
        f.cluster_mut()
            .read_local(dst.node, dst.pid, target, &mut got)
            .unwrap();
        assert_eq!(got, big);
    }

    #[test]
    fn oversized_and_undersized_are_rejected() {
        let (mut f, a, b, ch) = two_endpoint_fabric();
        let too_big = vec![0u8; 100 * 1024];
        assert!(matches!(
            f.send(ch, a, &too_big),
            Err(MsgError::MessageTooLarge { .. })
        ));
        f.send(ch, a, &[1u8; 100]).unwrap();
        assert!(matches!(
            f.recv_into(ch, b, VirtAddr::new(0x2000_0000), 10),
            Err(MsgError::MessageTooLarge { .. })
        ));
    }

    #[test]
    fn membership_is_enforced() {
        let (mut f, a, _b, ch) = two_endpoint_fabric();
        let outsider = f.add_endpoint(0).unwrap();
        assert!(matches!(
            f.send(ch, outsider, b"hi"),
            Err(MsgError::NotAMember { .. })
        ));
        assert!(matches!(
            f.recv(ch, outsider),
            Err(MsgError::NotAMember { .. })
        ));
        assert!(matches!(
            f.send(ChannelId(99), a, b"hi"),
            Err(MsgError::UnknownChannel(99))
        ));
    }

    #[test]
    fn eager_rendezvous_switch_is_exact_at_max_eager() {
        let (mut f, a, b, ch) = two_endpoint_fabric();
        let max = ChannelConfig::default().max_eager();

        // Exactly max_eager: stays on the eager path. Proof: a second send
        // succeeds immediately — a rendezvous would leave `pending_large`
        // set and fail it with ProtocolViolation.
        let at_max = vec![0x11u8; max as usize];
        f.send(ch, a, &at_max).unwrap();
        f.send(ch, a, b"follow-up").unwrap();
        assert_eq!(f.recv(ch, b).unwrap(), at_max);
        assert_eq!(f.recv(ch, b).unwrap(), b"follow-up");

        // One byte more: rendezvous. The same probe now fails.
        let over_max = vec![0x22u8; max as usize + 1];
        f.send(ch, a, &over_max).unwrap();
        assert!(matches!(
            f.send(ch, a, b"blocked"),
            Err(MsgError::ProtocolViolation(_))
        ));
        assert_eq!(f.recv(ch, b).unwrap(), over_max);
        f.send(ch, a, b"unblocked").unwrap();
        assert_eq!(f.recv(ch, b).unwrap(), b"unblocked");
    }

    #[test]
    fn zero_byte_payloads_roundtrip_eagerly() {
        let (mut f, a, b, ch) = two_endpoint_fabric();
        f.send(ch, a, b"").unwrap();
        f.send(ch, a, b"after-empty").unwrap();
        assert_eq!(f.recv(ch, b).unwrap(), b"");
        assert_eq!(f.recv(ch, b).unwrap(), b"after-empty");
        // Zero-byte also works through the zero-copy and reuse paths.
        f.send(ch, b, b"").unwrap();
        assert_eq!(
            f.recv_into(ch, a, VirtAddr::new(0x2000_0000), 0).unwrap(),
            0
        );
        f.send(ch, b, b"").unwrap();
        let mut buf = RecvBuf::new();
        assert_eq!(f.recv_reuse(ch, a, &mut buf).unwrap(), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn degenerate_ring_geometry_cannot_connect() {
        let mut f = Fabric::new(Cluster::new(2).unwrap());
        let a = f.add_endpoint(0).unwrap();
        let b = f.add_endpoint(1).unwrap();
        let bad = ChannelConfig {
            slot_bytes: 16, // no room for any payload after the header
            ..ChannelConfig::default()
        };
        assert!(matches!(
            f.connect(a, b, bad),
            Err(MsgError::InvalidConfig(_))
        ));
    }

    #[test]
    fn recv_reuse_keeps_one_region_and_buffer_across_messages() {
        let (mut f, a, b, ch) = two_endpoint_fabric();
        let mut buf = RecvBuf::new();
        f.send(ch, a, b"first").unwrap();
        f.recv_reuse(ch, b, &mut buf).unwrap();
        assert_eq!(buf.as_slice(), b"first");
        let base = buf.region_base().expect("region allocated");
        let cap = buf.bytes.capacity();
        for i in 0..20u8 {
            f.send(ch, a, &[i; 5]).unwrap();
            let n = f.recv_reuse(ch, b, &mut buf).unwrap();
            assert_eq!(n, 5);
            assert_eq!(buf.as_slice(), &[i; 5]);
            assert_eq!(buf.region_base(), Some(base), "region is reused");
            assert_eq!(buf.bytes.capacity(), cap, "byte buffer is reused");
        }
        // A message larger than the region grows it once …
        let big = vec![0x5Au8; 20_000];
        f.send(ch, a, &big).unwrap();
        f.recv_reuse(ch, b, &mut buf).unwrap();
        assert_eq!(buf.as_slice(), &big[..]);
        let grown = buf.region_base().unwrap();
        assert_ne!(grown, base);
        // … and small messages keep reusing the grown region.
        f.send(ch, a, b"small again").unwrap();
        f.recv_reuse(ch, b, &mut buf).unwrap();
        assert_eq!(buf.region_base(), Some(grown));
    }

    #[test]
    fn recv_scratch_region_is_reused_not_leaked() {
        let (mut f, a, b, ch) = two_endpoint_fabric();
        // Warm up: the first recv allocates the scratch region.
        f.send(ch, a, b"warm").unwrap();
        f.recv(ch, b).unwrap();
        let va_after_warmup = f.endpoint(b).unwrap().next_va;
        for _ in 0..50 {
            f.send(ch, a, b"steady").unwrap();
            f.recv(ch, b).unwrap();
        }
        assert_eq!(
            f.endpoint(b).unwrap().next_va,
            va_after_warmup,
            "steady-state recv must not bump-allocate address space"
        );
    }

    #[test]
    fn steady_state_messaging_needs_no_pins_or_interrupts() {
        let (mut f, a, b, ch) = two_endpoint_fabric();
        // Warm up both directions.
        for _ in 0..3 {
            f.send(ch, a, b"warm").unwrap();
            f.recv(ch, b).unwrap();
        }
        let before = f.cluster().node(0).unwrap().utlb().aggregate_stats();
        for _ in 0..50 {
            f.send(ch, a, b"steady").unwrap();
            f.recv(ch, b).unwrap();
        }
        let after = f.cluster().node(0).unwrap().utlb().aggregate_stats();
        assert_eq!(after.pin_calls, before.pin_calls, "no pin ioctls");
        assert_eq!(after.interrupts, 0, "no interrupts");
        assert_eq!(after.check_misses, before.check_misses);
    }
}

#[cfg(test)]
mod multi_channel_tests {
    use super::*;

    #[test]
    fn channels_between_the_same_endpoints_are_independent() {
        let mut f = Fabric::new(Cluster::new(2).unwrap());
        let a = f.add_endpoint(0).unwrap();
        let b = f.add_endpoint(1).unwrap();
        let ch1 = f.connect(a, b, ChannelConfig::default()).unwrap();
        let ch2 = f.connect(a, b, ChannelConfig::default()).unwrap();
        f.send(ch1, a, b"one").unwrap();
        f.send(ch2, a, b"two").unwrap();
        // Receiving on ch2 first does not disturb ch1's queue.
        assert_eq!(f.recv(ch2, b).unwrap(), b"two");
        assert_eq!(f.recv(ch1, b).unwrap(), b"one");
        assert!(matches!(f.recv(ch1, b), Err(MsgError::WouldBlock)));
    }

    #[test]
    fn one_endpoint_many_peers() {
        let mut f = Fabric::new(Cluster::new(3).unwrap());
        let hub = f.add_endpoint(0).unwrap();
        let p1 = f.add_endpoint(1).unwrap();
        let p2 = f.add_endpoint(2).unwrap();
        let c1 = f.connect(hub, p1, ChannelConfig::default()).unwrap();
        let c2 = f.connect(hub, p2, ChannelConfig::default()).unwrap();
        f.send(c1, hub, b"to p1").unwrap();
        f.send(c2, hub, b"to p2").unwrap();
        f.send(c1, p1, b"from p1").unwrap();
        assert_eq!(f.recv(c1, p1).unwrap(), b"to p1");
        assert_eq!(f.recv(c2, p2).unwrap(), b"to p2");
        assert_eq!(f.recv(c1, hub).unwrap(), b"from p1");
    }
}
