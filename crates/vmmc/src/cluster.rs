//! The cluster: nodes wired through a crossbar switch.
//!
//! `Cluster` exposes the VMMC user API (export / import / remote store /
//! remote fetch / redirect) and runs the firmware event loop: the MCP of
//! each node polls its command queues, translates buffers through the UTLB,
//! fragments transfers at page boundaries, moves packets through the
//! reliable data-link channels, and delivers arriving data straight into
//! exported (or redirected) user buffers.

use crate::buffer::{Export, ExportId, Import, ImportId, PUBLIC_KEY};
use crate::node::{Node, PendingFetch};
use crate::{Result, VmmcError};
use utlb_core::{TranslationMechanism, UtlbConfig};
use utlb_mem::{ProcessId, VirtAddr, PAGE_SIZE};
use utlb_nic::packet::{DeliveryInfo, Packet, PacketKind};
use utlb_nic::reliable::{RemapTable, DEFAULT_RTO};
use utlb_nic::{Command, CommandKind, Link, NodeId, Switch};

/// Safety valve for the event loop.
const MAX_ROUNDS: usize = 100_000;

/// A simulated VMMC cluster.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    switch: Switch,
    remap: RemapTable,
    /// Communication trace, when instrumentation is enabled — the same
    /// record stream the paper's instrumented VMMC software produced
    /// ("each send and remote read request along with a
    /// globally-synchronized clock", §6).
    trace_log: Option<Vec<utlb_trace::TraceRecord>>,
}

impl Cluster {
    /// Creates a cluster of `n` nodes with the default UTLB configuration.
    ///
    /// # Errors
    ///
    /// Propagates substrate initialization failures.
    pub fn new(n: usize) -> Result<Self> {
        Self::with_config(n, UtlbConfig::default())
    }

    /// Creates a cluster of `n` nodes with a custom UTLB configuration.
    ///
    /// # Errors
    ///
    /// Propagates substrate initialization failures.
    pub fn with_config(n: usize, cfg: UtlbConfig) -> Result<Self> {
        let nodes = (0..n)
            .map(|i| Node::new(NodeId::new(i as u32), cfg.clone()))
            .collect();
        Ok(Cluster {
            nodes,
            switch: Switch::new(n, Link::default()),
            remap: RemapTable::new(),
            trace_log: None,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Read-only access to a node (statistics, clocks).
    ///
    /// # Errors
    ///
    /// Returns [`VmmcError::UnknownNode`] for an out-of-range index.
    pub fn node(&self, idx: usize) -> Result<&Node> {
        self.nodes
            .get(idx)
            .ok_or(VmmcError::UnknownNode(idx as u32))
    }

    /// Mutable access to a node — for simulation-harness experiments (e.g.
    /// OS paging pressure via [`Node::host_mut`]).
    ///
    /// # Errors
    ///
    /// Returns [`VmmcError::UnknownNode`] for an out-of-range index.
    pub fn node_mut(&mut self, idx: usize) -> Result<&mut Node> {
        self.nodes
            .get_mut(idx)
            .ok_or(VmmcError::UnknownNode(idx as u32))
    }

    /// Starts recording every posted send and fetch, timestamped with the
    /// issuing node's clock — the instrumentation the paper added to VMMC
    /// to produce its simulator traces (§6).
    pub fn enable_tracing(&mut self) {
        self.trace_log = Some(Vec::new());
    }

    /// Stops tracing and returns the recorded trace, sorted by the global
    /// clock, ready to feed the trace-driven simulator.
    ///
    /// Returns an empty trace if tracing was never enabled.
    pub fn take_trace(&mut self, workload: impl Into<String>) -> utlb_trace::Trace {
        let mut records = self.trace_log.take().unwrap_or_default();
        records.sort_by_key(|r| (r.ts_ns, r.pid.raw()));
        utlb_trace::Trace::new(workload, 0, records)
    }

    fn log_request(
        &mut self,
        idx: usize,
        pid: ProcessId,
        op: utlb_trace::Op,
        va: VirtAddr,
        nbytes: u64,
    ) {
        if let Some(log) = &mut self.trace_log {
            let ts_ns = self.nodes[idx].board.clock.now().as_nanos();
            log.push(utlb_trace::TraceRecord {
                ts_ns,
                pid,
                op,
                va,
                nbytes,
            });
        }
    }

    /// Installs a packet-drop fault hook on the switch (tests, demos).
    pub fn inject_fault(&mut self, hook: Option<utlb_nic::FaultHook>) {
        self.switch.set_fault_hook(hook);
    }

    /// Dynamically remaps a logical node onto another physical port
    /// (paper §4.1: reaction to link/port failure).
    ///
    /// # Errors
    ///
    /// Returns [`VmmcError::UnknownNode`] for out-of-range indices.
    pub fn remap_node(&mut self, logical: usize, physical: usize) -> Result<()> {
        if logical >= self.nodes.len() || physical >= self.nodes.len() {
            return Err(VmmcError::UnknownNode(logical.max(physical) as u32));
        }
        self.remap
            .remap(NodeId::new(logical as u32), NodeId::new(physical as u32));
        Ok(())
    }

    /// Spawns a process on node `idx` and registers it with the UTLB.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn spawn_process(&mut self, idx: usize) -> Result<ProcessId> {
        let node = self.node_mut(idx)?;
        let pid = node.host.spawn_process();
        node.utlb
            .register_process(&mut node.host, &mut node.board, pid)?;
        Ok(pid)
    }

    /// Writes into a process' virtual memory (test/demo data setup).
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn write_local(
        &mut self,
        idx: usize,
        pid: ProcessId,
        va: VirtAddr,
        data: &[u8],
    ) -> Result<()> {
        let node = self.node_mut(idx)?;
        node.host.process_mut(pid)?.write(va, data)?;
        Ok(())
    }

    /// Reads from a process' virtual memory.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn read_local(
        &mut self,
        idx: usize,
        pid: ProcessId,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<()> {
        let node = self.node_mut(idx)?;
        node.host.process_mut(pid)?.read(va, buf)?;
        Ok(())
    }

    /// Exports a receive buffer: pins it through the UTLB and returns the
    /// handle remote processes import.
    ///
    /// # Errors
    ///
    /// Propagates pinning failures.
    pub fn export(
        &mut self,
        idx: usize,
        pid: ProcessId,
        va: VirtAddr,
        len: u64,
    ) -> Result<ExportId> {
        let node = self.node_mut(idx)?;
        node.utlb
            .lookup_buffer(&mut node.host, &mut node.board, pid, va, len)?;
        Ok(node.alloc_export(Export {
            pid,
            va,
            len,
            redirect: None,
            key: PUBLIC_KEY,
        }))
    }

    /// Exports a receive buffer protected by a permission key: only imports
    /// presenting `key` succeed (§2's protection model for virtualized
    /// network interfaces).
    ///
    /// # Errors
    ///
    /// Propagates pinning failures.
    pub fn export_protected(
        &mut self,
        idx: usize,
        pid: ProcessId,
        va: VirtAddr,
        len: u64,
        key: u32,
    ) -> Result<ExportId> {
        let node = self.node_mut(idx)?;
        node.utlb
            .lookup_buffer(&mut node.host, &mut node.board, pid, va, len)?;
        Ok(node.alloc_export(Export {
            pid,
            va,
            len,
            redirect: None,
            key,
        }))
    }

    /// Imports `export` of node `exporter` into node `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmcError::UnknownExport`] if the handle does not exist.
    pub fn import(
        &mut self,
        idx: usize,
        pid: ProcessId,
        exporter: usize,
        export: ExportId,
    ) -> Result<ImportId> {
        self.import_with_key(idx, pid, exporter, export, PUBLIC_KEY)
    }

    /// Imports a protected export, presenting `key`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmcError::PermissionDenied`] on a key mismatch and
    /// [`VmmcError::UnknownExport`] for a bad handle.
    pub fn import_with_key(
        &mut self,
        idx: usize,
        _pid: ProcessId,
        exporter: usize,
        export: ExportId,
        key: u32,
    ) -> Result<ImportId> {
        let remote = self.node(exporter)?;
        let e = remote.export(export)?;
        if e.key != key {
            return Err(VmmcError::PermissionDenied(export));
        }
        let len = e.len;
        let remote_id = remote.id();
        let node = self.node_mut(idx)?;
        Ok(node.alloc_import(Import {
            remote: remote_id,
            export,
            len,
        }))
    }

    /// Installs a transfer redirection: future data for `export` lands at
    /// `new_va` of the exporting process (§4.1). The new buffer is pinned
    /// through the UTLB immediately so delivery stays interrupt-free.
    ///
    /// # Errors
    ///
    /// Returns [`VmmcError::UnknownExport`] for a bad handle.
    pub fn redirect(
        &mut self,
        idx: usize,
        pid: ProcessId,
        export: ExportId,
        new_va: VirtAddr,
    ) -> Result<()> {
        let node = self.node_mut(idx)?;
        let len = node.export(export)?.len;
        node.utlb
            .lookup_buffer(&mut node.host, &mut node.board, pid, new_va, len)?;
        let e = node
            .exports
            .get_mut(&export.0)
            .ok_or(VmmcError::UnknownExport(export))?;
        e.redirect = Some(new_va);
        Ok(())
    }

    fn check_bounds(import: &Import, offset: u64, nbytes: u64) -> Result<()> {
        if offset + nbytes > import.len {
            return Err(VmmcError::OutOfBounds {
                offset,
                nbytes,
                export_len: import.len,
            });
        }
        Ok(())
    }

    /// Posts a remote store: `nbytes` from `local_va` into the imported
    /// buffer at `remote_offset`. Data moves when the firmware runs
    /// ([`Cluster::run_until_quiet`]).
    ///
    /// # Errors
    ///
    /// Returns [`VmmcError::OutOfBounds`] for transfers past the buffer end.
    pub fn remote_store(
        &mut self,
        idx: usize,
        pid: ProcessId,
        import: ImportId,
        local_va: VirtAddr,
        remote_offset: u64,
        nbytes: u64,
    ) -> Result<()> {
        let node = self.node_mut(idx)?;
        let imp = *node.import(import)?;
        Self::check_bounds(&imp, remote_offset, nbytes)?;
        node.board.cmdq.post(Command {
            pid,
            kind: CommandKind::Send {
                import_id: import.0,
                remote_offset,
            },
            local_va,
            nbytes,
        })?;
        self.log_request(idx, pid, utlb_trace::Op::Send, local_va, nbytes);
        Ok(())
    }

    /// Posts a remote fetch: `nbytes` from the imported buffer at
    /// `remote_offset` into `local_va`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmcError::OutOfBounds`] for fetches past the buffer end.
    pub fn remote_fetch(
        &mut self,
        idx: usize,
        pid: ProcessId,
        import: ImportId,
        local_va: VirtAddr,
        remote_offset: u64,
        nbytes: u64,
    ) -> Result<()> {
        let node = self.node_mut(idx)?;
        let imp = *node.import(import)?;
        Self::check_bounds(&imp, remote_offset, nbytes)?;
        node.board.cmdq.post(Command {
            pid,
            kind: CommandKind::Fetch {
                import_id: import.0,
                remote_offset,
            },
            local_va,
            nbytes,
        })?;
        self.log_request(idx, pid, utlb_trace::Op::Fetch, local_va, nbytes);
        Ok(())
    }

    /// Translates `va` and copies `data` into the process' physical memory
    /// page by page — the receive-side zero-copy DMA path.
    fn write_via_utlb(node: &mut Node, pid: ProcessId, va: VirtAddr, data: &[u8]) -> Result<()> {
        let mut done = 0usize;
        let mut cursor = va;
        while done < data.len() {
            let chunk = ((PAGE_SIZE - cursor.page_offset()) as usize).min(data.len() - done);
            let report = node.utlb.lookup_buffer(
                &mut node.host,
                &mut node.board,
                pid,
                cursor,
                chunk as u64,
            )?;
            let pa = report[0].phys.offset(cursor.page_offset());
            node.host
                .physical_mut()
                .write(pa, &data[done..done + chunk])?;
            // The payload crosses the I/O bus into host memory.
            let cost = node.board.dma.bus().dma_bytes(chunk as u64);
            node.board.clock.advance(cost);
            done += chunk;
            cursor = cursor.offset(chunk as u64);
        }
        Ok(())
    }

    /// Translates `va` and reads `buf.len()` bytes — the send-side path.
    fn read_via_utlb(node: &mut Node, pid: ProcessId, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        let mut done = 0usize;
        let mut cursor = va;
        while done < buf.len() {
            let chunk = ((PAGE_SIZE - cursor.page_offset()) as usize).min(buf.len() - done);
            let report = node.utlb.lookup_buffer(
                &mut node.host,
                &mut node.board,
                pid,
                cursor,
                chunk as u64,
            )?;
            let pa = report[0].phys.offset(cursor.page_offset());
            node.host
                .physical()
                .read(pa, &mut buf[done..done + chunk])?;
            let cost = node.board.dma.bus().dma_bytes(chunk as u64);
            node.board.clock.advance(cost);
            done += chunk;
            cursor = cursor.offset(chunk as u64);
        }
        Ok(())
    }

    /// Processes one posted command at node `idx`. Returns whether work was
    /// done.
    fn pump_commands(&mut self, idx: usize) -> Result<bool> {
        let Some(cmd) = self.nodes[idx].board.cmdq.poll() else {
            return Ok(false);
        };
        match cmd.kind {
            CommandKind::Send {
                import_id,
                remote_offset,
            } => {
                let imp = *self.nodes[idx].import(ImportId(import_id))?;
                let npages = cmd.local_va.span_pages(cmd.nbytes);
                self.nodes[idx].hold(cmd.pid, cmd.local_va.page(), npages)?;
                // Fragment at sender page boundaries; each fragment is read
                // through the UTLB fast path and shipped reliably.
                let mut done = 0u64;
                while done < cmd.nbytes {
                    let cursor = cmd.local_va.offset(done);
                    let chunk = (PAGE_SIZE - cursor.page_offset()).min(cmd.nbytes - done);
                    let mut payload = vec![0u8; chunk as usize];
                    Self::read_via_utlb(&mut self.nodes[idx], cmd.pid, cursor, &mut payload)?;
                    let delivery = DeliveryInfo {
                        export_id: imp.export.0,
                        offset: remote_offset + done,
                        nbytes: chunk,
                    };
                    let me = self.nodes[idx].id();
                    let now = self.nodes[idx].board.clock.now();
                    let packet = Packet::data(me, imp.remote, 0, delivery, payload);
                    self.nodes[idx].sender_to(imp.remote).send(
                        packet,
                        &mut self.switch,
                        &self.remap,
                        now,
                    )?;
                    done += chunk;
                }
            }
            CommandKind::Fetch {
                import_id,
                remote_offset,
            } => {
                let imp = *self.nodes[idx].import(ImportId(import_id))?;
                // Pin and hold the local landing buffer up front so reply
                // delivery is a pure fast path.
                let npages = cmd.local_va.span_pages(cmd.nbytes);
                {
                    let node = &mut self.nodes[idx];
                    node.utlb.lookup_buffer(
                        &mut node.host,
                        &mut node.board,
                        cmd.pid,
                        cmd.local_va,
                        cmd.nbytes,
                    )?;
                }
                self.nodes[idx].hold(cmd.pid, cmd.local_va.page(), npages)?;
                let ticket = self.nodes[idx].alloc_ticket(PendingFetch {
                    pid: cmd.pid,
                    local_va: cmd.local_va,
                    remaining: cmd.nbytes,
                });
                let delivery = DeliveryInfo {
                    export_id: imp.export.0,
                    offset: remote_offset,
                    nbytes: cmd.nbytes,
                };
                let me = self.nodes[idx].id();
                let now = self.nodes[idx].board.clock.now();
                let packet = Packet::fetch_request(me, imp.remote, delivery, ticket);
                self.nodes[idx].sender_to(imp.remote).send(
                    packet,
                    &mut self.switch,
                    &self.remap,
                    now,
                )?;
            }
            CommandKind::Redirect { export_id } => {
                // Redirections are installed synchronously by the API; a
                // posted one (exercised for completeness) re-installs.
                let node = &mut self.nodes[idx];
                let len = node.export(ExportId(export_id))?.len;
                node.utlb.lookup_buffer(
                    &mut node.host,
                    &mut node.board,
                    cmd.pid,
                    cmd.local_va,
                    len,
                )?;
                let e = node
                    .exports
                    .get_mut(&export_id)
                    .ok_or(VmmcError::UnknownExport(ExportId(export_id)))?;
                e.redirect = Some(cmd.local_va);
            }
        }
        Ok(true)
    }

    /// Delivers one arrived packet at node `idx`, if any. Returns whether
    /// work was done.
    fn pump_network(&mut self, idx: usize) -> Result<bool> {
        let me = self.nodes[idx].id();
        let now = self.nodes[idx].board.clock.now();
        // If the node is idle, let its clock catch up with the next arrival.
        let packet = match self.switch.recv(me, now)? {
            Some(p) => p,
            None => match self.switch.next_arrival(me) {
                Some(arrive) => {
                    self.nodes[idx].board.clock.advance_to(arrive);
                    match self.switch.recv(me, arrive)? {
                        Some(p) => p,
                        None => return Ok(false),
                    }
                }
                None => return Ok(false),
            },
        };

        if packet.kind == PacketKind::Ack {
            let ack_seq = packet.ack_seq;
            let from = packet.src;
            let now = self.nodes[idx].board.clock.now();
            // Find the channel whose (possibly remapped) destination sent
            // this ack.
            let remap = self.remap.clone();
            for (dst_raw, sender) in self.nodes[idx].senders.iter_mut() {
                let logical = NodeId::new(*dst_raw);
                if logical == from || remap.resolve(logical) == from {
                    sender.on_ack(ack_seq, &mut self.switch, &remap, now)?;
                }
            }
            return Ok(true);
        }

        let (deliver, ack) = self.nodes[idx].receiver.accept(packet.clone());
        // Acknowledge (cumulative) whatever the receiver state says.
        if ack > 0 {
            let now = self.nodes[idx].board.clock.now();
            self.switch.send(Packet::ack(me, packet.src, ack), now)?;
        }
        let Some(packet) = deliver else {
            return Ok(true);
        };

        match packet.kind {
            PacketKind::Data => {
                let delivery = packet.delivery.expect("data packets carry delivery info");
                self.deliver_data(idx, delivery, &packet.payload)?;
            }
            PacketKind::FetchRequest => {
                let delivery = packet.delivery.expect("fetch requests carry delivery info");
                self.serve_fetch(idx, packet.src, delivery, packet.ticket)?;
            }
            PacketKind::FetchReply => {
                let delivery = packet.delivery.expect("fetch replies carry delivery info");
                self.absorb_fetch_reply(idx, delivery, packet.ticket, &packet.payload)?;
            }
            PacketKind::Ack => unreachable!("acks handled above"),
        }
        Ok(true)
    }

    fn deliver_data(&mut self, idx: usize, delivery: DeliveryInfo, payload: &[u8]) -> Result<()> {
        let export = *self.nodes[idx].export(ExportId(delivery.export_id))?;
        if delivery.offset + payload.len() as u64 > export.len {
            return Err(VmmcError::OutOfBounds {
                offset: delivery.offset,
                nbytes: payload.len() as u64,
                export_len: export.len,
            });
        }
        let target = export.delivery_va().offset(delivery.offset);
        Self::write_via_utlb(&mut self.nodes[idx], export.pid, target, payload)
    }

    fn serve_fetch(
        &mut self,
        idx: usize,
        requester: NodeId,
        delivery: DeliveryInfo,
        ticket: u32,
    ) -> Result<()> {
        let export = *self.nodes[idx].export(ExportId(delivery.export_id))?;
        if delivery.offset + delivery.nbytes > export.len {
            return Err(VmmcError::OutOfBounds {
                offset: delivery.offset,
                nbytes: delivery.nbytes,
                export_len: export.len,
            });
        }
        // Fetch always reads the *exported* buffer (redirection affects
        // where incoming stores land, not what a fetch observes).
        let mut done = 0u64;
        while done < delivery.nbytes {
            let cursor = export.va.offset(delivery.offset + done);
            let chunk = (PAGE_SIZE - cursor.page_offset()).min(delivery.nbytes - done);
            let mut payload = vec![0u8; chunk as usize];
            Self::read_via_utlb(&mut self.nodes[idx], export.pid, cursor, &mut payload)?;
            let reply_delivery = DeliveryInfo {
                export_id: 0,
                offset: done,
                nbytes: chunk,
            };
            let me = self.nodes[idx].id();
            let now = self.nodes[idx].board.clock.now();
            let reply = Packet::fetch_reply(me, requester, reply_delivery, ticket, payload);
            self.nodes[idx]
                .sender_to(requester)
                .send(reply, &mut self.switch, &self.remap, now)?;
            done += chunk;
        }
        Ok(())
    }

    fn absorb_fetch_reply(
        &mut self,
        idx: usize,
        delivery: DeliveryInfo,
        ticket: u32,
        payload: &[u8],
    ) -> Result<()> {
        let pending = match self.nodes[idx].pending_fetches.get(&ticket) {
            Some(p) => *p,
            // Duplicate reply after completion: drop silently.
            None => return Ok(()),
        };
        let target = pending.local_va.offset(delivery.offset);
        Self::write_via_utlb(&mut self.nodes[idx], pending.pid, target, payload)?;
        let entry = self.nodes[idx]
            .pending_fetches
            .get_mut(&ticket)
            .expect("checked above");
        entry.remaining = entry.remaining.saturating_sub(payload.len() as u64);
        if entry.remaining == 0 {
            self.nodes[idx].pending_fetches.remove(&ticket);
        }
        Ok(())
    }

    fn quiet(&self) -> bool {
        self.switch.in_flight() == 0
            && self
                .nodes
                .iter()
                .all(|n| n.board.cmdq.pending() == 0 && n.drained() && n.pending_fetches.is_empty())
    }

    /// Runs the firmware event loop until every posted operation has been
    /// delivered and acknowledged, then releases all transfer holds.
    ///
    /// # Errors
    ///
    /// Returns [`VmmcError::Stalled`] if traffic cannot drain (e.g. a dead
    /// link without remapping) and propagates reliable-delivery failures.
    pub fn run_until_quiet(&mut self) -> Result<()> {
        for _ in 0..MAX_ROUNDS {
            let mut progress = false;
            for i in 0..self.nodes.len() {
                progress |= self.pump_commands(i)?;
                progress |= self.pump_network(i)?;
            }
            if self.quiet() {
                for node in &mut self.nodes {
                    node.release_all_holds()?;
                }
                return Ok(());
            }
            if !progress {
                // Nothing moved: idle until retransmission timers can fire.
                for i in 0..self.nodes.len() {
                    let now = self.nodes[i].board.clock.now() + DEFAULT_RTO;
                    self.nodes[i].board.clock.advance_to(now);
                    let node_now = self.nodes[i].board.clock.now();
                    let remap = self.remap.clone();
                    for sender in self.nodes[i].senders.values_mut() {
                        sender.tick(&mut self.switch, &remap, node_now)?;
                    }
                }
            }
        }
        let stuck = self
            .nodes
            .iter()
            .find(|n| n.board.cmdq.pending() > 0 || !n.drained())
            .map(|n| n.id())
            .unwrap_or(NodeId::new(0));
        Err(VmmcError::Stalled { node: stuck })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_setup() -> (Cluster, ProcessId, ProcessId, ExportId, ImportId) {
        let mut c = Cluster::new(2).unwrap();
        let sender = c.spawn_process(0).unwrap();
        let receiver = c.spawn_process(1).unwrap();
        let export = c
            .export(1, receiver, VirtAddr::new(0x4000_0000), 4 * PAGE_SIZE)
            .unwrap();
        let import = c.import(0, sender, 1, export).unwrap();
        (c, sender, receiver, export, import)
    }

    #[test]
    fn remote_store_moves_bytes_end_to_end() {
        let (mut c, sender, receiver, _e, import) = two_node_setup();
        let src = VirtAddr::new(0x1000_0000);
        c.write_local(0, sender, src, b"across the wire").unwrap();
        c.remote_store(0, sender, import, src, 100, 15).unwrap();
        c.run_until_quiet().unwrap();
        let mut buf = [0u8; 15];
        c.read_local(1, receiver, VirtAddr::new(0x4000_0000 + 100), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"across the wire");
    }

    #[test]
    fn multi_page_store_spanning_boundaries() {
        let (mut c, sender, receiver, _e, import) = two_node_setup();
        let src = VirtAddr::new(0x1000_0F00); // near a page boundary
        let data: Vec<u8> = (0..10000u32).map(|i| (i % 251) as u8).collect();
        c.write_local(0, sender, src, &data).unwrap();
        c.remote_store(0, sender, import, src, 8, data.len() as u64)
            .unwrap();
        c.run_until_quiet().unwrap();
        let mut buf = vec![0u8; data.len()];
        c.read_local(1, receiver, VirtAddr::new(0x4000_0008), &mut buf)
            .unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn remote_fetch_pulls_data() {
        let (mut c, sender, receiver, _e, import) = two_node_setup();
        c.write_local(1, receiver, VirtAddr::new(0x4000_0000), b"fetch me")
            .unwrap();
        let dst = VirtAddr::new(0x2000_0000);
        c.remote_fetch(0, sender, import, dst, 0, 8).unwrap();
        c.run_until_quiet().unwrap();
        let mut buf = [0u8; 8];
        c.read_local(0, sender, dst, &mut buf).unwrap();
        assert_eq!(&buf, b"fetch me");
    }

    #[test]
    fn redirection_changes_landing_buffer() {
        let (mut c, sender, receiver, export, import) = two_node_setup();
        let redirected = VirtAddr::new(0x5000_0000);
        c.redirect(1, receiver, export, redirected).unwrap();
        let src = VirtAddr::new(0x1000_0000);
        c.write_local(0, sender, src, b"rerouted").unwrap();
        c.remote_store(0, sender, import, src, 0, 8).unwrap();
        c.run_until_quiet().unwrap();
        let mut buf = [0u8; 8];
        c.read_local(1, receiver, redirected, &mut buf).unwrap();
        assert_eq!(&buf, b"rerouted");
        // Default location untouched.
        let mut orig = [0u8; 8];
        c.read_local(1, receiver, VirtAddr::new(0x4000_0000), &mut orig)
            .unwrap();
        assert_eq!(orig, [0u8; 8]);
    }

    #[test]
    fn out_of_bounds_is_rejected_at_post_time() {
        let (mut c, sender, _r, _e, import) = two_node_setup();
        let err = c
            .remote_store(
                0,
                sender,
                import,
                VirtAddr::new(0x1000_0000),
                4 * PAGE_SIZE - 4,
                8,
            )
            .unwrap_err();
        assert!(matches!(err, VmmcError::OutOfBounds { .. }));
        let err = c
            .remote_fetch(
                0,
                sender,
                import,
                VirtAddr::new(0x1000_0000),
                0,
                5 * PAGE_SIZE,
            )
            .unwrap_err();
        assert!(matches!(err, VmmcError::OutOfBounds { .. }));
    }

    #[test]
    fn second_store_is_a_pure_fast_path() {
        let (mut c, sender, _r, _e, import) = two_node_setup();
        let src = VirtAddr::new(0x1000_0000);
        c.write_local(0, sender, src, &[7u8; 64]).unwrap();
        c.remote_store(0, sender, import, src, 0, 64).unwrap();
        c.run_until_quiet().unwrap();
        let stats1 = c.node(0).unwrap().utlb().aggregate_stats();
        c.remote_store(0, sender, import, src, 64, 64).unwrap();
        c.run_until_quiet().unwrap();
        let stats2 = c.node(0).unwrap().utlb().aggregate_stats();
        assert_eq!(stats2.pins, stats1.pins, "no new pinning");
        assert_eq!(
            stats2.check_misses, stats1.check_misses,
            "no new check misses"
        );
        assert_eq!(stats2.interrupts, 0, "never an interrupt");
    }

    #[test]
    fn lossy_link_recovers_through_retransmission() {
        let (mut c, sender, receiver, _e, import) = two_node_setup();
        // Drop every third data packet, once each.
        let mut seen = std::collections::HashSet::new();
        c.inject_fault(Some(Box::new(move |p: &Packet| {
            if p.kind == PacketKind::Data && p.seq.is_multiple_of(3) && seen.insert(p.seq) {
                return true;
            }
            false
        })));
        let src = VirtAddr::new(0x1000_0000);
        let data: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 199) as u8).collect();
        c.write_local(0, sender, src, &data).unwrap();
        c.remote_store(0, sender, import, src, 0, data.len() as u64)
            .unwrap();
        c.run_until_quiet().unwrap();
        let mut buf = vec![0u8; data.len()];
        c.read_local(1, receiver, VirtAddr::new(0x4000_0000), &mut buf)
            .unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn holds_are_released_when_quiet() {
        let (mut c, sender, _r, _e, import) = two_node_setup();
        let src = VirtAddr::new(0x1000_0000);
        c.write_local(0, sender, src, &[1u8; 128]).unwrap();
        c.remote_store(0, sender, import, src, 0, 128).unwrap();
        c.run_until_quiet().unwrap();
        assert!(c.node(0).unwrap().held.is_empty());
    }

    #[test]
    fn unknown_handles_are_rejected() {
        let mut c = Cluster::new(2).unwrap();
        let pid = c.spawn_process(0).unwrap();
        assert!(matches!(
            c.import(0, pid, 1, ExportId(5)),
            Err(VmmcError::UnknownExport(_))
        ));
        assert!(matches!(
            c.remote_store(0, pid, ImportId(9), VirtAddr::new(0), 0, 8),
            Err(VmmcError::UnknownImport(_))
        ));
        assert!(matches!(c.node(7), Err(VmmcError::UnknownNode(7))));
        assert!(matches!(c.spawn_process(7), Err(VmmcError::UnknownNode(7))));
    }

    #[test]
    fn permission_keys_gate_imports() {
        let mut c = Cluster::new(2).unwrap();
        let tx = c.spawn_process(0).unwrap();
        let rx = c.spawn_process(1).unwrap();
        let secret = c
            .export_protected(1, rx, VirtAddr::new(0x4000_0000), PAGE_SIZE, 0xBEEF)
            .unwrap();
        // Wrong key (including the public key) is rejected.
        assert!(matches!(
            c.import(0, tx, 1, secret),
            Err(VmmcError::PermissionDenied(_))
        ));
        assert!(matches!(
            c.import_with_key(0, tx, 1, secret, 0xDEAD),
            Err(VmmcError::PermissionDenied(_))
        ));
        // The right key works end to end.
        let import = c.import_with_key(0, tx, 1, secret, 0xBEEF).unwrap();
        c.write_local(0, tx, VirtAddr::new(0x1000_0000), b"secret")
            .unwrap();
        c.remote_store(0, tx, import, VirtAddr::new(0x1000_0000), 0, 6)
            .unwrap();
        c.run_until_quiet().unwrap();
        let mut got = [0u8; 6];
        c.read_local(1, rx, VirtAddr::new(0x4000_0000), &mut got)
            .unwrap();
        assert_eq!(&got, b"secret");
    }

    #[test]
    fn tracing_records_what_the_simulator_needs() {
        let (mut c, sender, _r, _e, import) = two_node_setup();
        c.enable_tracing();
        let src = VirtAddr::new(0x1000_0000);
        c.write_local(0, sender, src, &[1u8; 8192]).unwrap();
        for i in 0..4u64 {
            c.remote_store(0, sender, import, src, 0, 4096 + i).unwrap();
            c.run_until_quiet().unwrap();
        }
        c.remote_fetch(0, sender, import, VirtAddr::new(0x2000_0000), 0, 64)
            .unwrap();
        c.run_until_quiet().unwrap();
        let trace = c.take_trace("live");
        assert_eq!(trace.records.len(), 5);
        assert_eq!(trace.workload, "live");
        assert!(trace.records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(
            trace
                .records
                .iter()
                .filter(|r| r.op == utlb_trace::Op::Fetch)
                .count(),
            1
        );
        // Lookups: store of 4096 = 1 page; 4097/4098/4099 straddle = 2 each;
        // the 64-byte fetch = 1.
        assert_eq!(trace.total_lookups(), 1 + 2 + 2 + 2 + 1);
        // Tracing disabled after take_trace.
        c.remote_store(0, sender, import, src, 0, 64).unwrap();
        c.run_until_quiet().unwrap();
        assert!(c.take_trace("empty").records.is_empty());
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // src/dst index several arrays at once
    fn four_node_all_to_all() {
        let mut c = Cluster::new(4).unwrap();
        let pids: Vec<ProcessId> = (0..4).map(|i| c.spawn_process(i).unwrap()).collect();
        // Every node exports one page; everyone stores its node index into
        // everyone else's buffer at an offset keyed by the sender.
        let exports: Vec<ExportId> = (0..4)
            .map(|i| {
                c.export(i, pids[i], VirtAddr::new(0x4000_0000), PAGE_SIZE)
                    .unwrap()
            })
            .collect();
        let mut imports = vec![vec![None; 4]; 4];
        for src in 0..4 {
            for dst in 0..4 {
                if src != dst {
                    imports[src][dst] = Some(c.import(src, pids[src], dst, exports[dst]).unwrap());
                }
            }
        }
        for src in 0..4 {
            let va = VirtAddr::new(0x1000_0000);
            c.write_local(src, pids[src], va, &[src as u8 + 1; 8])
                .unwrap();
            for dst in 0..4 {
                if src != dst {
                    c.remote_store(
                        src,
                        pids[src],
                        imports[src][dst].unwrap(),
                        va,
                        src as u64 * 8,
                        8,
                    )
                    .unwrap();
                }
            }
        }
        c.run_until_quiet().unwrap();
        for dst in 0..4 {
            for src in 0..4 {
                if src != dst {
                    let mut buf = [0u8; 8];
                    c.read_local(
                        dst,
                        pids[dst],
                        VirtAddr::new(0x4000_0000 + src as u64 * 8),
                        &mut buf,
                    )
                    .unwrap();
                    assert_eq!(buf, [src as u8 + 1; 8], "src {src} → dst {dst}");
                }
            }
        }
    }
}
