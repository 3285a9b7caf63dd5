//! Quickstart: two eactors in two enclaves exchanging typed, encrypted
//! messages.
//!
//! Demonstrates the core EActors workflow: define a wire message,
//! implement actors, declare a deployment (enclaves + workers + a typed
//! channel and a typed port), start the runtime, and observe that
//! cross-enclave messaging costs no execution-mode transitions.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use eactors::prelude::*;
use sgx_sim::Platform;

/// The greeting on the wire: a borrowed view decoded in place from the
/// node (or channel scratch) buffer — no heap allocation per message.
struct Greeting<'a>(&'a str);

impl<'m> Wire for Greeting<'m> {
    type View<'a> = Greeting<'a>;

    fn encoded_len(&self) -> usize {
        self.0.len()
    }

    fn encode_into(&self, out: &mut [u8]) -> usize {
        out[..self.0.len()].copy_from_slice(self.0.as_bytes());
        self.0.len()
    }

    fn decode_from(data: &[u8]) -> Option<Greeting<'_>> {
        std::str::from_utf8(data).ok().map(Greeting)
    }
}

/// Sends greetings over the encrypted channel and counts replies arriving
/// on the shared reply port.
struct Greeter {
    sent: u32,
    received: u32,
    rounds: u32,
    replies: Option<Port<Greeting<'static>>>,
}

impl Actor for Greeter {
    fn ctor(&mut self, ctx: &mut Ctx) {
        self.replies = ctx.port("replies");
        // Replies are the only input, so the worker may sleep until one
        // arrives instead of polling this actor.
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        // Poll the typed reply port first.
        let replies = self.replies.as_ref().expect("declared in deployment");
        while replies.recv(|g| println!("greeter got: {}", g.0)).is_some() {
            self.received += 1;
        }
        if self.received == self.rounds {
            ctx.shutdown();
            return Control::Park;
        }
        if self.sent < self.rounds {
            let msg = format!("hello #{}", self.sent);
            if ctx
                .typed_channel::<Greeting>(0)
                .send(&Greeting(&msg))
                .is_ok()
            {
                self.sent += 1;
            }
            // Busy also when the channel was full: nothing announces
            // room in it, so a greeting still owed keeps the actor hot.
            return Control::Busy;
        }
        Control::Idle
    }
}

/// Replies to every greeting through the shared reply port.
struct Echo {
    replies: Option<Port<Greeting<'static>>>,
    scratch: String,
}

impl Actor for Echo {
    fn ctor(&mut self, ctx: &mut Ctx) {
        self.replies = ctx.port("replies");
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        let scratch = &mut self.scratch;
        let got = ctx.typed_channel::<Greeting>(0).recv(|g| {
            scratch.clear();
            scratch.push_str("echo of ");
            scratch.push_str(g.0);
        });
        match got {
            Ok(Some(())) => {
                let replies = self.replies.as_ref().expect("declared in deployment");
                replies.send(&Greeting(&self.scratch));
                Control::Busy
            }
            _ => Control::Idle,
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A simulated SGX machine with the paper-calibrated cost model.
    let platform = Platform::builder().build();

    // Deployment: the entire trusted/untrusted decision lives here.
    let mut builder = DeploymentBuilder::new();
    let left = builder.enclave("greeter-enclave");
    let right = builder.enclave("echo-enclave");
    let greeter = builder.actor(
        "greeter",
        Placement::Enclave(left),
        Greeter {
            sent: 0,
            received: 0,
            rounds: 5,
            replies: None,
        },
    );
    let echo = builder.actor(
        "echo",
        Placement::Enclave(right),
        Echo {
            replies: None,
            scratch: String::new(),
        },
    );
    // Two enclaves => this channel transparently encrypts (the key is
    // agreed via simulated local attestation).
    builder.channel(greeter, echo);
    // The reply path: a typed port over a shared untrusted pool. Every
    // actor asking for "replies" gets the same wire type enforced and the
    // same drop/corruption telemetry.
    builder.pool("reply-pool", Placement::Untrusted, 16, 256);
    builder.port::<Greeting>("replies", "reply-pool", 16);
    builder.worker(&[greeter]);
    builder.worker(&[echo]);

    let before = platform.stats();
    let runtime = Runtime::start(&platform, builder.build()?)?;
    let report = runtime.join();
    let after = platform.stats();

    println!("\nbody executions : {}", report.total_executions());
    println!(
        "mode transitions: {} (all from setup/teardown — messaging added none)",
        after.transitions() - before.transitions()
    );
    println!(
        "cycles charged  : {}",
        after.cycles_charged() - before.cycles_charged()
    );
    Ok(())
}
