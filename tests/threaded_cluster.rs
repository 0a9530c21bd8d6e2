//! Real-concurrency integration: servers behind the TCP event core on
//! loopback ports, many client threads sharing each `TcpEndpoint`'s
//! connection pool, final state cross-checked. Complements the
//! deterministic simulated transport the benchmarks use — and verifies
//! both transports produce identical visit traces.

use locofs::dms::{DirServer, DmsBackend, DmsRequest, DmsResponse};
use locofs::fms::{FileServer, FmsMode, FmsRequest, FmsResponse};
use locofs::kv::KvConfig;
use locofs::net::{
    class, serve_tcp, CallCtx, Endpoint, ServeOptions, ServerId, Service, SimEndpoint, TcpEndpoint,
    TcpServerGuard,
};
use locofs::types::{HashRing, Wire};
use std::net::TcpListener;

/// Host `svc` on an ephemeral loopback port and dial it.
fn serve<S>(id: ServerId, svc: S) -> (TcpEndpoint<S>, TcpServerGuard)
where
    S: Service + 'static,
    S::Req: Wire,
    S::Resp: Wire,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let guard = serve_tcp(id, svc, listener, ServeOptions::default()).expect("serve");
    let ep = TcpEndpoint::connect(id, &guard.addr().to_string());
    (ep, guard)
}

#[test]
fn concurrent_clients_build_a_consistent_namespace() {
    let (dms, _dg) = serve(
        ServerId::new(class::DMS, 0),
        DirServer::new(DmsBackend::BTree, KvConfig::default()),
    );
    let mut fms = Vec::new();
    let mut guards = Vec::new();
    for i in 0..3u16 {
        let (ep, g) = serve(
            ServerId::new(class::FMS, i),
            FileServer::new(i + 1, FmsMode::Decoupled, KvConfig::default()),
        );
        fms.push(ep);
        guards.push(g);
    }
    let ring = HashRing::new(3);

    const THREADS: usize = 6;
    const DIRS: usize = 40;
    const FILES: usize = 5;

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let dms = dms.clone();
        let fms = fms.clone();
        let ring = ring.clone();
        handles.push(std::thread::spawn(move || {
            let mut ctx = CallCtx::new();
            for d in 0..DIRS {
                let dir = format!("/w{t}-{d}");
                let DmsResponse::Done(Ok(_)) = dms.call(
                    &mut ctx,
                    DmsRequest::Mkdir {
                        path: dir.clone(),
                        mode: 0o755,
                        uid: 1,
                        gid: 1,
                        ts: 0,
                    },
                ) else {
                    panic!("mkdir {dir} failed")
                };
                let DmsResponse::Dir(Ok(inode)) =
                    dms.call(&mut ctx, DmsRequest::GetDir { path: dir })
                else {
                    panic!("getdir failed")
                };
                for f in 0..FILES {
                    let name = format!("f{f}");
                    let idx = ring.place_file(inode.uuid.raw(), &name) as usize;
                    let resp = fms[idx].call(
                        &mut ctx,
                        FmsRequest::Create {
                            dir_uuid: inode.uuid,
                            name,
                            mode: 0o644,
                            uid: 1,
                            gid: 1,
                            ts: 0,
                        },
                    );
                    assert!(matches!(resp, FmsResponse::Created(Ok(_))));
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Cross-check: every directory exists with exactly FILES files.
    let mut ctx = CallCtx::new();
    for t in 0..THREADS {
        for d in 0..DIRS {
            let dir = format!("/w{t}-{d}");
            let DmsResponse::Dir(Ok(inode)) =
                dms.call(&mut ctx, DmsRequest::GetDir { path: dir.clone() })
            else {
                panic!("{dir} missing after concurrent run")
            };
            let mut total = 0;
            for ep in &fms {
                let FmsResponse::Count(n) = ep.call(
                    &mut ctx,
                    FmsRequest::CountFiles {
                        dir_uuid: inode.uuid,
                    },
                ) else {
                    panic!()
                };
                total += n;
            }
            assert_eq!(total, FILES, "{dir} file count");
        }
    }
}

#[test]
fn duplicate_creates_race_to_exactly_one_winner() {
    let (dms, _g) = serve(
        ServerId::new(class::DMS, 0),
        DirServer::new(DmsBackend::BTree, KvConfig::default()),
    );
    const RACERS: usize = 8;
    let mut handles = Vec::new();
    for _ in 0..RACERS {
        let dms = dms.clone();
        handles.push(std::thread::spawn(move || {
            let mut ctx = CallCtx::new();
            matches!(
                dms.call(
                    &mut ctx,
                    DmsRequest::Mkdir {
                        path: "/contended".into(),
                        mode: 0o755,
                        uid: 1,
                        gid: 1,
                        ts: 0,
                    },
                ),
                DmsResponse::Done(Ok(_))
            )
        }));
    }
    let winners = handles
        .into_iter()
        .filter(|_| true)
        .map(|h| h.join().unwrap())
        .filter(|&w| w)
        .count();
    assert_eq!(winners, 1, "exactly one mkdir must win the race");
}

#[test]
fn sim_and_tcp_transports_agree_on_traces() {
    let mk = || DirServer::new(DmsBackend::BTree, KvConfig::default());
    let sim = SimEndpoint::new(ServerId::new(class::DMS, 0), mk());
    let (tcp, _g) = serve(ServerId::new(class::DMS, 0), mk());

    let script = |ep: &dyn Endpoint<DmsRequest, DmsResponse>| {
        let mut ctx = CallCtx::new();
        for i in 0..20 {
            ep.call(
                &mut ctx,
                DmsRequest::Mkdir {
                    path: format!("/d{i}"),
                    mode: 0o755,
                    uid: 1,
                    gid: 1,
                    ts: 0,
                },
            );
        }
        ep.call(&mut ctx, DmsRequest::GetDir { path: "/d7".into() });
        ctx.take_trace()
    };
    let a = script(&sim);
    let b = script(&tcp);
    assert_eq!(a.visits, b.visits, "transports must charge identically");
}
