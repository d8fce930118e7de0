//! Live mode: a threaded server front-end with dedicated dispatch
//! workers — the deployment shape of the paper's software prototype
//! (§4.1: "communicating via eRPC with a dedicated thread on the remote
//! side"; §6.2: "16 dedicated cores to handle RPCs and implement the
//! PRISM primitives").
//!
//! [`LiveServer::spawn`] starts N worker threads draining a request
//! channel; [`LiveClient`] submits [`Request`]s and waits for replies.
//! This is how multi-threaded examples and stress tests drive a server
//! through a realistic queue instead of calling into it directly, and
//! it doubles as a load generator for measuring the real dispatch cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use prism_rdma::sync::{bounded, Receiver, Sender};

use crate::msg::{execute_local, Reply, Request};
use crate::server::PrismServer;

enum Job {
    Work {
        req: Request,
        reply_to: Option<Sender<Reply>>,
    },
    /// Shutdown marker: exactly one per worker, sent by
    /// [`LiveServer::shutdown`]. Client handles may outlive the server,
    /// so channel closure alone cannot signal exit.
    Poison,
}

/// Counters published by a running live server.
#[derive(Debug, Default)]
pub struct LiveStats {
    /// PRISM chains executed.
    pub chains: AtomicU64,
    /// Classic verbs executed.
    pub verbs: AtomicU64,
    /// Two-sided RPCs executed (the server-CPU work PRISM eliminates
    /// from the data path).
    pub rpcs: AtomicU64,
}

/// Bumps the per-kind counters for one request; doorbell batches count
/// each inner request individually (a batch is a submission, not a new
/// kind of work).
fn count_request(stats: &LiveStats, req: &Request) {
    match req {
        Request::Chain(_) => {
            stats.chains.fetch_add(1, Ordering::Relaxed);
        }
        Request::Verb(_) => {
            stats.verbs.fetch_add(1, Ordering::Relaxed);
        }
        Request::Rpc(_) => {
            stats.rpcs.fetch_add(1, Ordering::Relaxed);
        }
        Request::Batch(reqs) => {
            for r in reqs {
                count_request(stats, r);
            }
        }
    }
}

/// A PRISM host served by a pool of dispatch threads.
pub struct LiveServer {
    tx: Sender<Job>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<LiveStats>,
    server: Arc<PrismServer>,
}

impl LiveServer {
    /// Spawns `workers` dispatch threads over `server`. Queue depth is
    /// bounded (back-pressure, like a NIC's receive queue).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn spawn(server: Arc<PrismServer>, workers: usize) -> Self {
        assert!(workers > 0, "LiveServer: need at least one worker");
        let (tx, rx): (Sender<Job>, Receiver<Job>) = bounded(4096);
        let stats = Arc::new(LiveStats::default());
        let handles = (0..workers)
            .map(|_| {
                let rx = rx.clone();
                let server = Arc::clone(&server);
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let (req, reply_to) = match job {
                            Job::Work { req, reply_to } => (req, reply_to),
                            Job::Poison => break,
                        };
                        count_request(&stats, &req);
                        let reply = execute_local(&server, &req);
                        if let Some(reply_to) = reply_to {
                            // A dropped receiver means the client gave up
                            // (fire-and-forget or shutdown): fine.
                            let _ = reply_to.send(reply);
                        }
                    }
                })
            })
            .collect();
        LiveServer {
            tx,
            workers: handles,
            stats,
            server,
        }
    }

    /// Opens a client handle to this server.
    pub fn client(&self) -> LiveClient {
        LiveClient {
            tx: self.tx.clone(),
        }
    }

    /// Execution counters.
    pub fn stats(&self) -> &LiveStats {
        &self.stats
    }

    /// The underlying host (for setup and assertions).
    pub fn server(&self) -> &Arc<PrismServer> {
        &self.server
    }

    /// Stops the workers after draining queued requests. Safe even while
    /// client handles are still alive (their later sends fail).
    pub fn shutdown(self) {
        for _ in 0..self.workers.len() {
            let _ = self.tx.send(Job::Poison);
        }
        drop(self.tx);
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// A handle submitting requests to a [`LiveServer`].
#[derive(Debug, Clone)]
pub struct LiveClient {
    tx: Sender<Job>,
}

impl LiveClient {
    /// Sends a request and blocks for the reply — one "round trip".
    ///
    /// # Panics
    ///
    /// Panics if the server has shut down.
    pub fn call(&self, req: Request) -> Reply {
        let (rtx, rrx) = bounded(1);
        self.tx
            .send(Job::Work {
                req,
                reply_to: Some(rtx),
            })
            .expect("live server is running");
        rrx.recv().expect("worker replies before exiting")
    }

    /// Sends a fire-and-forget request (reclamation traffic).
    pub fn cast(&self, req: Request) {
        let _ = self.tx.send(Job::Work {
            req,
            reply_to: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ops;
    use prism_rdma::region::AccessFlags;

    fn live() -> (LiveServer, u64, u32) {
        live_with(4)
    }

    fn live_with(workers: usize) -> (LiveServer, u64, u32) {
        let server = Arc::new(PrismServer::new(1 << 20));
        let (addr, rkey) = server.carve_region(4096, 64, AccessFlags::FULL);
        server.set_rpc_handler(Arc::new(|req: &[u8]| req.to_vec()));
        (LiveServer::spawn(server, workers), addr, rkey.0)
    }

    #[test]
    fn round_trips_through_workers() {
        let (srv, addr, rkey) = live();
        let client = srv.client();
        let w = client.call(Request::Chain(vec![ops::write(
            addr,
            b"live!".to_vec(),
            rkey,
        )]));
        assert!(w.into_chain().unwrap()[0].succeeded());
        let r = client.call(Request::Chain(vec![ops::read(addr, 5, rkey)]));
        assert_eq!(r.into_chain().unwrap()[0].data, b"live!");
        assert_eq!(srv.stats().chains.load(Ordering::Relaxed), 2);
        srv.shutdown();
    }

    #[test]
    fn many_threads_share_one_server() {
        let (srv, addr, rkey) = live();
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let client = srv.client();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        // Each thread owns an 8-byte cell; verbs and
                        // chains interleave through the same workers.
                        let cell = addr + t * 8;
                        let v = (t << 32 | i).to_le_bytes().to_vec();
                        client.call(Request::Chain(vec![ops::write(cell, v.clone(), rkey)]));
                        let r = client.call(Request::Verb(crate::msg::Verb::Read {
                            addr: cell,
                            len: 8,
                            rkey,
                        }));
                        let got = r.into_verb().unwrap();
                        let got = u64::from_le_bytes(got.try_into().unwrap());
                        // Last write wins; our own write is the only
                        // writer of this cell, so it must match.
                        assert_eq!(got, t << 32 | i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(srv.stats().chains.load(Ordering::Relaxed), 1600);
        assert_eq!(srv.stats().verbs.load(Ordering::Relaxed), 1600);
        srv.shutdown();
    }

    #[test]
    fn cast_is_fire_and_forget() {
        let (srv, _addr, _rkey) = live();
        let client = srv.client();
        for _ in 0..50 {
            client.cast(Request::Rpc(b"ping".to_vec()));
        }
        // Shutdown drains the queue; all RPCs must have been handled.
        srv.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work() {
        // One worker: with several, the writes land in dequeue-race
        // order and "the last one queued" need not be the last applied.
        let (srv, addr, rkey) = live_with(1);
        let client = srv.client();
        for i in 0..100u64 {
            client.cast(Request::Chain(vec![ops::write(
                addr + 64,
                i.to_le_bytes().to_vec(),
                rkey,
            )]));
        }
        let server = Arc::clone(srv.server());
        srv.shutdown();
        // The final queued write must have landed.
        assert_eq!(server.arena().read_u64(addr + 64).unwrap(), 99);
    }
}
