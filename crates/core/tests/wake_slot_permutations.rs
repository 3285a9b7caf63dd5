//! Exhaustive interleaving ("permutation") test of the per-worker park
//! slot in `eactors::wake` — the eventcount a worker and the senders to
//! its actors' mboxes run — in the style of `spsc_mbox_permutations.rs`.
//!
//! The model has one consumer worker hosting two actors, each with its
//! own mbox, and two sender threads, one per mbox. The worker runs its
//! loop: a pass over both mboxes; if the pass found nothing, register as
//! sleeper (`WorkerParker::prepare`), re-poll **both** mboxes, then
//! either deregister (`cancel`) or block (`park`) until signalled.
//! Sender A always uses the directed notify of `Mbox::send`; sender B
//! is run once with each notify kind: directed, the broadcast
//! `WakeHub::notify` (which first looks at the hub-wide sleeper count)
//! and `WakeHub::notify_force` (which does not). A notify is two steps
//! — claim the slot (`PARKED` → `NOTIFIED`), then signal — so the model
//! also covers a worker that reaches its wait, or gives up on it,
//! between the two.
//!
//! Every step is one access to shared memory, interleaved every
//! possible way (sequential consistency is what the `SeqCst` fences in
//! `wake.rs` buy). The memoised depth-first search asserts the one
//! property parking must have:
//!
//! * **no lost wake-up** — no interleaving ends with a message queued,
//!   every sender finished, and the worker blocked with no signal on
//!   its way.
//!
//! It also asserts that each message is consumed exactly once. The
//! companion test removes the re-poll between registering and blocking
//! and asserts the model catches the sleeper that then misses a message.

use std::collections::HashSet;

const RUNNING: u8 = 0;
const PARKED: u8 = 1;
const NOTIFIED: u8 = 3;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Notify {
    /// `WakeHub::notify_worker`: fence, load the slot, claim, signal.
    Directed,
    /// `WakeHub::notify`: fence, load the hub's sleeper count, then
    /// claim and signal every parked slot.
    Broadcast,
    /// `WakeHub::notify_force`: claim and signal every parked slot.
    Force,
}

/// Shared memory plus every thread's program counter and locals.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    /// Messages queued in actor 1's and actor 2's mbox.
    queued: [u8; 2],
    /// The worker's slot.
    slot: u8,
    /// The hub-wide sleeper count.
    sleepers: u8,
    /// A signal (condvar notify / eventfd write) not yet consumed.
    signal: bool,
    // Worker.
    w_step: u8,
    found: bool,
    consumed: [u8; 2],
    // Senders: step, and whether their claim won.
    s_step: [u8; 2],
    s_claimed: [bool; 2],
}

impl State {
    fn initial() -> State {
        State {
            queued: [0; 2],
            slot: RUNNING,
            sleepers: 0,
            signal: false,
            w_step: 0,
            found: false,
            consumed: [0; 2],
            s_step: [0; 2],
            s_claimed: [false; 2],
        }
    }

    fn poll(&mut self, actor: usize) {
        if self.queued[actor] > 0 {
            self.queued[actor] -= 1;
            self.consumed[actor] += 1;
            assert!(self.consumed[actor] <= 1, "message consumed twice");
            self.found = true;
        }
    }

    fn worker_done(&self) -> bool {
        self.consumed == [1, 1]
    }

    /// Whether the worker can take a step (it cannot while blocked in
    /// its wait with no signal pending).
    fn worker_ready(&self) -> bool {
        let blocked = self.w_step == 7 && !self.signal;
        !self.worker_done() && !blocked
    }

    /// Worker steps: 0/1 a pass over both actors · 2/3 register
    /// (`sleepers += 1`, `slot = PARKED`; the fence follows) · 4/5 the
    /// re-poll of both actors · 6 cancel or commit · 7 the wait · 8
    /// deregister.
    fn step_worker(&mut self, repoll: bool) {
        match self.w_step {
            0 => {
                self.found = false;
                self.poll(0);
                self.w_step = 1;
            }
            1 => {
                self.poll(1);
                self.w_step = if self.found { 0 } else { 2 };
            }
            2 => {
                self.sleepers += 1;
                self.w_step = 3;
            }
            3 => {
                self.slot = PARKED;
                self.w_step = if repoll { 4 } else { 7 };
            }
            4 => {
                self.poll(0);
                self.w_step = 5;
            }
            5 => {
                self.poll(1);
                self.w_step = 6;
            }
            6 => {
                if self.found {
                    // cancel(): a claim that already happened leaves its
                    // signal behind for the next wait to absorb.
                    self.slot = RUNNING;
                    self.w_step = 8;
                } else {
                    self.w_step = 7;
                }
            }
            7 => {
                // The wait returned: consume the signal.
                assert!(self.signal, "stepped while blocked");
                self.signal = false;
                self.slot = RUNNING;
                self.w_step = 8;
            }
            8 => {
                self.sleepers -= 1;
                self.w_step = 0;
            }
            _ => unreachable!(),
        }
    }

    fn sender_done(&self, s: usize) -> bool {
        self.s_step[s] == 4
    }

    /// Sender steps: 0 enqueue (the fence follows) · 1 the cheap check
    /// (slot state for a directed notify, sleeper count for a
    /// broadcast, none for a forced one) · 2 claim `PARKED` →
    /// `NOTIFIED` · 3 signal if the claim won · 4 done.
    fn step_sender(&mut self, s: usize, kind: Notify) {
        match self.s_step[s] {
            0 => {
                self.queued[s] += 1;
                self.s_step[s] = 1;
            }
            1 => {
                let nobody = match kind {
                    Notify::Directed => self.slot == RUNNING,
                    Notify::Broadcast => self.sleepers == 0,
                    Notify::Force => false,
                };
                self.s_step[s] = if nobody { 4 } else { 2 };
            }
            2 => {
                self.s_claimed[s] = self.slot == PARKED;
                if self.s_claimed[s] {
                    self.slot = NOTIFIED;
                }
                self.s_step[s] = if self.s_claimed[s] { 3 } else { 4 };
            }
            3 => {
                self.signal = true;
                self.s_step[s] = 4;
            }
            _ => unreachable!(),
        }
    }
}

/// Execute every interleaving reachable from `state`; returns whether a
/// lost wake-up was reached. Memoises visited states.
fn explore(
    state: State,
    kind_b: Notify,
    repoll: bool,
    seen: &mut HashSet<State>,
    terminal: &mut u64,
) -> bool {
    if !seen.insert(state.clone()) {
        return false;
    }
    let mut stepped = false;
    let mut lost = false;
    if state.worker_ready() {
        stepped = true;
        let mut next = state.clone();
        next.step_worker(repoll);
        lost |= explore(next, kind_b, repoll, seen, terminal);
    }
    for s in 0..2 {
        if !state.sender_done(s) {
            stepped = true;
            let mut next = state.clone();
            let kind = if s == 0 { Notify::Directed } else { kind_b };
            next.step_sender(s, kind);
            lost |= explore(next, kind_b, repoll, seen, terminal);
        }
    }
    if !stepped {
        *terminal += 1;
        // Nobody can move: either the worker consumed everything, or it
        // sleeps with a message queued and no wake-up coming.
        lost |= !state.worker_done();
    }
    lost
}

#[test]
fn no_interleaving_leaves_a_queued_message_with_the_worker_asleep() {
    for kind_b in [Notify::Directed, Notify::Broadcast, Notify::Force] {
        let mut seen = HashSet::new();
        let mut terminal = 0u64;
        let lost = explore(State::initial(), kind_b, true, &mut seen, &mut terminal);
        assert!(!lost, "lost wake-up with sender B using {kind_b:?}");
        assert!(
            seen.len() > 500,
            "state space suspiciously small for {kind_b:?}: {}",
            seen.len()
        );
        assert!(terminal >= 1, "no terminal state reached for {kind_b:?}");
    }
}

/// Same exploration with a broken worker — it blocks right after
/// registering, without polling its actors again — must reach a lost
/// wake-up: a sender that enqueued and checked the slot between the
/// worker's last poll and its registration saw `RUNNING` and signalled
/// nobody. This is the step `runtime.rs` takes between
/// `WorkerParker::prepare` and `WorkerParker::park`.
#[test]
fn model_detects_a_park_without_the_re_poll() {
    for kind_b in [Notify::Directed, Notify::Broadcast] {
        let mut seen = HashSet::new();
        let mut terminal = 0u64;
        assert!(
            explore(State::initial(), kind_b, false, &mut seen, &mut terminal),
            "the model failed to catch a worker that parks without re-polling ({kind_b:?})"
        );
    }
}
