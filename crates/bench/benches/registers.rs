//! B1 — register operation costs, simulated and native backends.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use tbwf_registers::native::{NativeAbortableReg, NativeAtomicReg, NativeEnv};
use tbwf_registers::{AbortableRegister, AtomicRegister, RegisterFactory};
use tbwf_sim::{Env, FreeRunEnv, ProcId};

fn sim_registers(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim-registers");
    let factory = RegisterFactory::default();
    let env = FreeRunEnv::new(ProcId(0));

    let atomic = factory.atomic("A", 0i64);
    g.bench_function("atomic-write", |b| {
        b.iter(|| atomic.write(&env, black_box(1)).unwrap())
    });
    g.bench_function("atomic-read", |b| b.iter(|| atomic.read(&env).unwrap()));

    let abortable = factory.abortable("B", 0i64);
    g.bench_function("abortable-write-solo", |b| {
        b.iter(|| abortable.write(&env, black_box(1)).unwrap())
    });
    g.bench_function("abortable-read-solo", |b| {
        b.iter(|| abortable.read(&env).unwrap())
    });

    let safe = factory.safe("S", 0);
    g.bench_function("safe-read", |b| b.iter(|| safe.read(&env).unwrap()));

    let cas = factory.cas("C", 0i64);
    g.bench_function("cas", |b| {
        b.iter(|| {
            let op = cas.invoke_cas(&env, black_box(0), black_box(0));
            env.tick().unwrap();
            cas.complete_cas(&env, op)
        })
    });
    g.finish();
}

fn native_registers(c: &mut Criterion) {
    let mut g = c.benchmark_group("native-registers");
    let (envs, _stop) = NativeEnv::group(1);
    let env = envs[0].clone();

    let atomic = NativeAtomicReg::new(0i64);
    g.bench_function("atomic-write", |b| {
        b.iter(|| atomic.write(&env, black_box(1)).unwrap())
    });

    let abortable = Arc::new(NativeAbortableReg::new(0i64));
    g.bench_function("abortable-write-solo", |b| {
        b.iter(|| abortable.write(&env, black_box(1)).unwrap())
    });
    g.bench_function("abortable-read-solo", |b| {
        b.iter(|| abortable.read(&env).unwrap())
    });

    // Contended: one background writer hammering while we read.
    let (envs2, stop2) = NativeEnv::group(2);
    let reg = Arc::new(NativeAbortableReg::new(0i64));
    let bg = {
        let reg = Arc::clone(&reg);
        let env = envs2[1].clone();
        std::thread::spawn(move || {
            let mut i = 0i64;
            while env.tick().is_ok() {
                i += 1;
                let _ = reg.write(&env, i);
            }
        })
    };
    let renv = envs2[0].clone();
    g.bench_function("abortable-read-contended", |b| {
        b.iter(|| black_box(reg.read(&renv).unwrap()))
    });
    stop2.store(true, std::sync::atomic::Ordering::Relaxed);
    bg.join().unwrap();
    g.finish();
}

criterion_group!(benches, sim_registers, native_registers);
criterion_main!(benches);
