//! Flexible trusted execution: the same actors deployed three ways from
//! JSON deployment files (paper §3.2 — deployment policy is
//! configuration, not code).
//!
//! A tiny pipeline (producer → transformer → auditor) runs (1) fully
//! untrusted, (2) with the transformer enclaved, (3) with every stage in
//! its own enclave — without touching a line of actor logic — and the
//! per-deployment transition counts show what each choice costs.
//!
//! ```text
//! cargo run --example flexible_deployment
//! ```

use eactors::prelude::*;
use eactors::spec::{ActorRegistry, DeploymentSpec};
use sgx_sim::Platform;

struct Producer {
    remaining: u32,
}

impl Actor for Producer {
    fn ctor(&mut self, ctx: &mut Ctx) {
        // No input at all: the producer is busy until it is done.
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        if self.remaining == 0 {
            return Control::Park;
        }
        let value = self.remaining;
        if ctx.channel(0).send(&value.to_le_bytes()).is_ok() {
            self.remaining -= 1;
        }
        // Busy also when the channel was full: nothing announces room in
        // it, so a value still owed keeps the actor hot.
        Control::Busy
    }
}

struct Transformer;

impl Actor for Transformer {
    fn ctor(&mut self, ctx: &mut Ctx) {
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        let mut buf = [0u8; 8];
        match ctx.channel(0).try_recv(&mut buf) {
            Ok(Some(4)) => {
                let v = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
                let squared = (v as u64) * (v as u64);
                let _ = ctx.channel(1).send(&squared.to_le_bytes());
                Control::Busy
            }
            _ => Control::Idle,
        }
    }
}

struct Auditor {
    expected: u32,
    sum: u64,
}

impl Actor for Auditor {
    fn ctor(&mut self, ctx: &mut Ctx) {
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        let mut buf = [0u8; 8];
        match ctx.channel(0).try_recv(&mut buf) {
            Ok(Some(8)) => {
                self.sum = self.sum.wrapping_add(u64::from_le_bytes(buf));
                self.expected -= 1;
                if self.expected == 0 {
                    println!("  auditor: sum of squares = {}", self.sum);
                    ctx.shutdown();
                    return Control::Park;
                }
                Control::Busy
            }
            _ => Control::Idle,
        }
    }
}

const ITEMS: u32 = 100;

fn registry() -> ActorRegistry {
    let mut r = ActorRegistry::new();
    r.register("producer", |_| Ok(Box::new(Producer { remaining: ITEMS })));
    r.register("transformer", |_| Ok(Box::new(Transformer)));
    r.register("auditor", |_| {
        Ok(Box::new(Auditor {
            expected: ITEMS,
            sum: 0,
        }))
    });
    r
}

/// The three deployment files. Only placement differs.
fn spec(name: &str) -> String {
    let (enclaves, producer_e, transformer_e, auditor_e) = match name {
        "all untrusted" => ("[]", "", "", ""),
        "transformer enclaved" => (
            r#"[{"name": "worker"}]"#,
            "",
            r#", "enclave": "worker""#,
            "",
        ),
        _ => (
            r#"[{"name": "e1"}, {"name": "e2"}, {"name": "e3"}]"#,
            r#", "enclave": "e1""#,
            r#", "enclave": "e2""#,
            r#", "enclave": "e3""#,
        ),
    };
    format!(
        r#"{{
            "enclaves": {enclaves},
            "actors": [
                {{"name": "producer", "kind": "producer"{producer_e}}},
                {{"name": "transformer", "kind": "transformer"{transformer_e}}},
                {{"name": "auditor", "kind": "auditor"{auditor_e}}}
            ],
            "workers": [{{"actors": ["producer", "transformer", "auditor"]}}],
            "channels": [
                {{"a": "producer", "b": "transformer"}},
                {{"a": "transformer", "b": "auditor"}}
            ]
        }}"#
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = registry();
    for name in [
        "all untrusted",
        "transformer enclaved",
        "one enclave per stage",
    ] {
        println!("deployment: {name}");
        let platform = Platform::builder().build();
        let deployment = DeploymentSpec::from_json(&spec(name))?
            .into_builder(&registry)?
            .build()?;
        let before = platform.stats().transitions();
        let runtime = Runtime::start(&platform, deployment)?;
        runtime.join();
        println!(
            "  mode transitions: {} (one worker migrating across {} domains)\n",
            platform.stats().transitions() - before,
            match name {
                "all untrusted" => 1,
                "transformer enclaved" => 2,
                _ => 3,
            }
        );
    }
    println!("identical results, three security postures, zero code changes.");
    Ok(())
}
