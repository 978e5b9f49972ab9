//! Deterministic overlap tests: drive two processes with a scripted
//! schedule so that register operations overlap (or don't) exactly as
//! planned, and check the abortable semantics at the boundary.

use std::sync::Arc;
use tbwf_registers::{
    AbortPolicy, EffectPolicy, OpToken, ReadOutcome, RegisterFactory, RegisterFactoryConfig,
    WriteOutcome,
};
use tbwf_sim::schedule::Scripted;
use tbwf_sim::{Control, Env, Local, ProcId, RunConfig, SimBuilder, StepCtx, Stepper};

fn factory(abort: AbortPolicy, effect: EffectPolicy) -> RegisterFactory {
    RegisterFactory::new(RegisterFactoryConfig {
        seed: 1,
        abort_policy: abort,
        effect_policy: effect,
    })
}

/// A task performing one register operation per entry of `idles`: it
/// first idles that many steps, then invokes the operation (ending the
/// segment) and completes it at the start of its next step, pushing the
/// result into `out`. It finishes in the segment that completes the last
/// operation.
fn ops_task<V: Clone + Send + 'static>(
    invoke: impl Fn(&dyn Env) -> OpToken + Send + 'static,
    complete: impl Fn(&dyn Env, OpToken) -> V + Send + 'static,
    idles: Vec<u32>,
    out: Local<Vec<V>>,
) -> Box<dyn Stepper> {
    let (mut next, mut idle, mut pending) = (0, 0, None);
    Box::new(move |ctx: &mut StepCtx<'_>| {
        if let Some(tok) = pending.take() {
            let v = complete(ctx.env(), tok);
            out.update(|o| o.push(v));
            next += 1;
            idle = 0;
            if next == idles.len() {
                return Control::Done;
            }
        }
        if idle < idles[next] {
            idle += 1;
        } else {
            pending = Some(invoke(ctx.env()));
        }
        Control::Yield
    })
}

fn run_two(b: SimBuilder, script: Vec<ProcId>) {
    b.build()
        .run(RunConfig::new(30, Scripted::new(script)))
        .assert_no_panics();
}

/// Schedule [p0, p1, p0, p1]: p0's write spans steps 0–2, p1's read spans
/// steps 1–3 ⇒ the intervals overlap ⇒ both abort under AlwaysOnOverlap.
#[test]
fn interleaved_ops_overlap_and_abort() {
    let f = factory(AbortPolicy::AlwaysOnOverlap, EffectPolicy::Never);
    let reg = f.abortable("R", 0i64);
    let w_out = Local::new(Vec::<WriteOutcome>::new());
    let r_out = Local::new(Vec::<ReadOutcome<i64>>::new());

    let mut b = SimBuilder::new();
    let p0 = b.add_process("p0");
    let (r1, r2) = (Arc::clone(&reg), Arc::clone(&reg));
    b.add_stepper(
        p0,
        "writer",
        ops_task(
            move |env| r1.invoke_write(env, 7),
            move |env, tok| r2.complete_write(env, tok),
            vec![0],
            w_out.clone(),
        ),
    );
    // With the [p0, p1] script the read's invocation (p1's first step,
    // t=1) falls inside the write's [t=0, t=2] interval.
    let p1 = b.add_process("p1");
    let (r1, r2) = (Arc::clone(&reg), Arc::clone(&reg));
    b.add_stepper(
        p1,
        "reader",
        ops_task(
            move |env| r1.invoke_read(env),
            move |env, tok| r2.complete_read(env, tok),
            vec![0],
            r_out.clone(),
        ),
    );
    run_two(b, vec![ProcId(0), ProcId(1)]);
    assert_eq!(w_out.get(), vec![WriteOutcome::Aborted], "write must abort");
    assert_eq!(r_out.get(), vec![ReadOutcome::Aborted], "read must abort");
    let (_, overlapped, aborted) = f.log().abort_stats();
    assert_eq!(overlapped, 2);
    assert_eq!(aborted, 2);
}

/// Same shape but the ops are strictly sequential (p0 finishes before p1
/// starts): nothing overlaps, nothing aborts, the read sees the write.
#[test]
fn sequential_ops_do_not_abort() {
    let f = factory(AbortPolicy::AlwaysOnOverlap, EffectPolicy::Never);
    let reg = f.abortable("R", 0i64);
    let w_out = Local::new(Vec::<WriteOutcome>::new());
    let r_out = Local::new(Vec::<ReadOutcome<i64>>::new());

    let mut b = SimBuilder::new();
    let p0 = b.add_process("p0");
    let (r1, r2) = (Arc::clone(&reg), Arc::clone(&reg));
    b.add_stepper(
        p0,
        "writer",
        ops_task(
            move |env| r1.invoke_write(env, 7),
            move |env, tok| r2.complete_write(env, tok),
            vec![0],
            w_out.clone(),
        ),
    );
    // Burn steps until the writer has definitely finished.
    let p1 = b.add_process("p1");
    let (r1, r2) = (Arc::clone(&reg), Arc::clone(&reg));
    b.add_stepper(
        p1,
        "reader",
        ops_task(
            move |env| r1.invoke_read(env),
            move |env, tok| r2.complete_read(env, tok),
            vec![4],
            r_out.clone(),
        ),
    );
    // p0 takes both its steps before p1's read begins.
    run_two(b, vec![ProcId(0), ProcId(0), ProcId(1)]);
    assert_eq!(w_out.get(), vec![WriteOutcome::Ok]);
    assert_eq!(r_out.get(), vec![ReadOutcome::Value(7)]);
    let (_, overlapped, aborted) = f.log().abort_stats();
    assert_eq!(overlapped, 0);
    assert_eq!(aborted, 0);
}

/// Runs the overlapping write of 42 against a reader that races it and
/// then reads again solo; returns the writer's outcome and both reads.
fn aborted_write_then_solo_read(
    effect: EffectPolicy,
) -> (Vec<WriteOutcome>, Vec<ReadOutcome<i64>>) {
    let f = factory(AbortPolicy::AlwaysOnOverlap, effect);
    let reg = f.abortable("R", 0i64);
    let w_out = Local::new(Vec::<WriteOutcome>::new());
    let r_out = Local::new(Vec::<ReadOutcome<i64>>::new());

    let mut b = SimBuilder::new();
    let p0 = b.add_process("p0");
    let (r1, r2) = (Arc::clone(&reg), Arc::clone(&reg));
    b.add_stepper(
        p0,
        "writer",
        ops_task(
            move |env| r1.invoke_write(env, 42),
            move |env, tok| r2.complete_write(env, tok),
            vec![0],
            w_out.clone(),
        ),
    );
    // The first read races the write; the second runs solo.
    let p1 = b.add_process("p1");
    let (r1, r2) = (Arc::clone(&reg), Arc::clone(&reg));
    b.add_stepper(
        p1,
        "reader",
        ops_task(
            move |env| r1.invoke_read(env),
            move |env, tok| r2.complete_read(env, tok),
            vec![0, 4],
            r_out.clone(),
        ),
    );
    run_two(b, vec![ProcId(0), ProcId(1)]);
    (w_out.get(), r_out.get())
}

/// EffectPolicy::Always: an aborted write *does* take effect — the writer
/// gets ⊥ but a later read sees the value (footnote 2 of the paper).
#[test]
fn aborted_write_may_take_effect() {
    let (w, r) = aborted_write_then_solo_read(EffectPolicy::Always);
    assert_eq!(w, vec![WriteOutcome::Aborted], "writer must see ⊥");
    assert_eq!(
        r[1],
        ReadOutcome::Value(42),
        "the aborted write must have taken effect"
    );
}

/// EffectPolicy::Never: the aborted write leaves the register unchanged.
#[test]
fn aborted_write_may_not_take_effect() {
    let (w, r) = aborted_write_then_solo_read(EffectPolicy::Never);
    assert_eq!(w, vec![WriteOutcome::Aborted]);
    assert_eq!(r[1], ReadOutcome::Value(0), "no effect expected");
}
