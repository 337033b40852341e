//! Network serving end to end: boot a backend, put it on a TCP socket
//! with `igcn::gateway`, and query it over both wire protocols.
//!
//! 1. Build and prepare an engine, then serve it on a loopback port
//!    (`Gateway::serve` with port 0 picks any free one).
//! 2. Query it over HTTP/1.1 (`POST /v1/infer` with a JSON body) and
//!    over the length-prefixed binary framing — both replies are
//!    bit-identical to a direct `Accelerator::infer` call.
//! 3. Send a request with a deadline, probe `GET /healthz`, and read
//!    the gateway counters from `GET /stats`.
//! 4. Shut down gracefully (in-flight requests drain first).
//!
//! Run: `cargo run --release --example gateway_client`

use std::sync::Arc;

use igcn::core::accel::{Accelerator, InferenceRequest};
use igcn::core::IGcnEngine;
use igcn::gateway::{BinaryClient, Gateway, GatewayConfig, HttpClient, InferReply};
use igcn::gnn::{GnnModel, ModelWeights};
use igcn::graph::generate::HubIslandConfig;
use igcn::graph::SparseFeatures;

const N: usize = 2_000;
const DIM: usize = 32;

fn main() {
    // 1. A prepared backend. Anything implementing `Accelerator` works
    //    here: this engine, a `Snapshot::warm_engine` boot, or a
    //    `ShardedEngine` fleet re-sharded from a snapshot.
    let g = HubIslandConfig::new(N, 16).noise_fraction(0.02).generate(42);
    let mut engine = IGcnEngine::builder(g.graph).build().expect("loop-free");
    let model = GnnModel::gcn(DIM, 16, 8);
    let weights = ModelWeights::glorot(&model, 1);
    engine.prepare(&model, &weights).expect("weights match the model");

    let features = SparseFeatures::random(N, DIM, 0.05, 7);
    let direct = engine.infer(&InferenceRequest::new(features.clone()).with_id(1)).unwrap();

    // 2. Serve it. `GatewayConfig::from_env` honours IGCN_IO_THREADS
    //    and IGCN_WORKER_THREADS; the defaults are fine here.
    let gateway = Gateway::serve(Arc::new(engine), "127.0.0.1:0", GatewayConfig::from_env())
        .expect("loopback bind");
    let addr = gateway.local_addr();
    println!("gateway listening on {addr}");

    // HTTP/1.1: human-debuggable, curl-able, still bit-exact.
    let mut http = HttpClient::connect(addr).expect("connect");
    match http.infer(1, None, &features).expect("round trip") {
        InferReply::Output { id, output } => {
            assert_eq!(id, 1);
            assert_eq!(output, direct.output, "HTTP reply is bit-identical");
            println!("HTTP  /v1/infer: {} rows, bit-identical to direct infer", output.rows());
        }
        other => panic!("unexpected reply: {other:?}"),
    }

    // Binary framing: raw IEEE-754 bits, XXH64-checksummed frames.
    let mut binary = BinaryClient::connect(addr).expect("connect");
    match binary.infer(2, None, &features).expect("round trip") {
        InferReply::Output { id, output } => {
            assert_eq!(id, 2);
            assert_eq!(output, direct.output, "binary reply is bit-identical");
            println!("wire  Infer:     {} rows, bit-identical to direct infer", output.rows());
        }
        other => panic!("unexpected reply: {other:?}"),
    }

    // 3. A deadline-bounded request: 500 ms is plenty here, so it
    //    completes; an expired deadline would come back as
    //    `InferReply::DeadlineExceeded` without touching the backend.
    match binary.infer(3, Some(500), &features).expect("round trip") {
        InferReply::Output { .. } => println!("wire  Infer:     met its 500 ms deadline"),
        InferReply::DeadlineExceeded => println!("wire  Infer:     expired before dispatch"),
        other => panic!("unexpected reply: {other:?}"),
    }

    let (status, _body) = http.get("/healthz").expect("probe");
    assert_eq!(status, 200);
    let (status, stats) = http.get("/stats").expect("probe");
    assert_eq!(status, 200);
    println!("GET   /stats:    {stats}");

    // 4. Graceful shutdown: drains in-flight work, joins every thread.
    gateway.shutdown();
    println!("gateway drained and shut down");
}
