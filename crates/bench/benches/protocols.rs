//! Whole-operation costs of the three applications and their baselines,
//! in live mode (direct execution; no simulated network). These measure
//! the real CPU work per logical operation — the quantity the paper's
//! servers spend dedicated cores on.

use prism_bench::runner::Criterion;
use prism_bench::{criterion_group, criterion_main};

use prism_core::msg::execute_local;
use prism_kv::hash::key_bytes;
use prism_kv::pilaf::{PilafConfig, PilafServer};
use prism_kv::prism_kv::{drive as kv_drive, PrismKvConfig, PrismKvServer};
use prism_kv::KvStep;
use prism_rs::prism_rs::{drive as rs_drive, RsCluster, RsConfig};
use prism_tx::farm::{FarmCluster, FarmConfig};
use prism_tx::prism_tx::{TxCluster, TxConfig};
use prism_tx::{drive as tx_drive, TxProtocol};

fn bench_kv(c: &mut Criterion) {
    let mut g = c.benchmark_group("kv");
    let prism = PrismKvServer::new(&PrismKvConfig::paper(1024, 512));
    let pc = prism.open_client();
    // Preload key 7.
    let val = vec![9u8; 512];
    let put = |value: &[u8]| {
        let (mut op, req) = pc.put(&key_bytes(7), value);
        kv_drive(prism.server(), req, |r| op.on_reply(&pc, r));
    };
    put(&val);

    g.bench_function("prism_kv_get_512", |b| {
        b.iter(|| {
            let (mut op, req) = pc.get(&key_bytes(7));
            let reply = execute_local(prism.server(), &req);
            op.on_reply(&pc, reply)
        });
    });
    g.bench_function("prism_kv_put_512", |b| b.iter(|| put(&val)));

    let pilaf = PilafServer::new(&PilafConfig::paper(1024, 512));
    let lc = pilaf.open_client();
    execute_local(pilaf.server(), &lc.put_request(&key_bytes(7), &val));
    g.bench_function("pilaf_get_512", |b| {
        b.iter(|| {
            let (mut op, req) = lc.get(&key_bytes(7));
            let mut reply = execute_local(pilaf.server(), &req);
            while let KvStep::Send { request, .. } = op.on_reply(&lc, reply) {
                reply = execute_local(pilaf.server(), &request);
            }
        });
    });
    g.bench_function("pilaf_put_rpc_512", |b| {
        let req = lc.put_request(&key_bytes(7), &val);
        b.iter(|| execute_local(pilaf.server(), &req));
    });
    g.finish();
}

fn bench_rs(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs");
    let cluster = RsCluster::new(3, &RsConfig::paper(64, 512));
    let client = cluster.open_client();
    g.bench_function("prism_rs_put_512_3replicas", |b| {
        b.iter(|| {
            let (op, step) = client.put(3, vec![5u8; 512]);
            rs_drive(&cluster, &client, op, step, &[false; 3])
        });
    });
    g.bench_function("prism_rs_get_512_3replicas", |b| {
        b.iter(|| {
            let (op, step) = client.get(3);
            rs_drive(&cluster, &client, op, step, &[false; 3])
        });
    });
    g.finish();
}

fn bench_tx(c: &mut Criterion) {
    let mut g = c.benchmark_group("tx");
    let cluster = TxCluster::new(1, &TxConfig::paper(1024, 512));
    g.bench_function("prism_tx_rmw_commit", |b| {
        let mut client = cluster.open_client();
        b.iter(|| {
            let (op, step) = client.begin(vec![7], vec![(7, vec![1u8; 512])]);
            tx_drive(&cluster, &mut client, op, step)
        });
    });
    let fcluster = FarmCluster::new(
        1,
        &FarmConfig {
            keys_per_shard: 1024,
            value_len: 512,
        },
    );
    g.bench_function("farm_rmw_commit", |b| {
        let mut client = fcluster.open_client();
        b.iter(|| {
            let (op, step) = client.begin(vec![7], vec![(7, vec![1u8; 512])]);
            tx_drive(&fcluster, &mut client, op, step)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_kv, bench_rs, bench_tx);
criterion_main!(benches);
