//! File-based deployment specifications.
//!
//! The paper drives its custom build process from a configuration file
//! that maps eactors to enclaves, workers and CPUs (§3.2), so the *same*
//! application sources yield different trusted/untrusted deployments. This
//! module is the runtime equivalent: a JSON document
//! ([`DeploymentSpec::from_json`]) plus an [`ActorRegistry`] of named
//! constructors, read once and turned straight into
//! [`crate::config::DeploymentBuilder`] calls. The builder is the only
//! description of a deployment the program holds; there is no
//! serialisable mirror of it and no way back to JSON.
//!
//! # Examples
//!
//! ```
//! use eactors::prelude::*;
//! use eactors::spec::{ActorRegistry, DeploymentSpec};
//!
//! struct Idle;
//! impl Actor for Idle {
//!     fn body(&mut self, _ctx: &mut Ctx) -> Control {
//!         Control::Park
//!     }
//! }
//!
//! let mut registry = ActorRegistry::new();
//! registry.register("idle", |_params| Ok(Box::new(Idle)));
//!
//! let json = r#"{
//!     "enclaves": [{"name": "e0"}],
//!     "actors": [
//!         {"name": "a", "kind": "idle", "enclave": "e0"},
//!         {"name": "b", "kind": "idle"}
//!     ],
//!     "workers": [{"actors": ["a", "b"]}],
//!     "channels": [{"a": "a", "b": "b"}]
//! }"#;
//! let spec = DeploymentSpec::from_json(json)?;
//! let builder = spec.into_builder(&registry)?;
//! let deployment = builder.build()?;
//! assert_eq!(deployment.actor_count(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::actor::Actor;
use crate::config::{
    ChannelOptions, DeploymentBuilder, EncryptionPolicy, Placement, DEFAULT_ENCLAVE_BYTES,
};
use crate::json::{self, Value};

/// A parsed deployment document, not yet bound to actor constructors.
///
/// Holds the JSON as parsed; [`DeploymentSpec::into_builder`] reads it
/// once, checking the schema as it issues the builder calls.
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    doc: Value,
}

/// Errors turning a [`DeploymentSpec`] into a builder.
#[derive(Debug)]
#[non_exhaustive]
pub enum SpecError {
    /// The JSON document could not be parsed.
    Parse(json::ParseError),
    /// The JSON parsed but does not match the spec schema.
    Schema(String),
    /// An actor referenced a `kind` that is not registered.
    UnknownKind(String),
    /// A spec entry referenced an undeclared name.
    UnknownName {
        /// What kind of object was looked up.
        kind: &'static str,
        /// The dangling name.
        name: String,
    },
    /// A registered constructor rejected its parameters.
    Constructor {
        /// The actor kind whose constructor failed.
        kind: String,
        /// The constructor's message.
        message: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "malformed deployment spec: {e}"),
            SpecError::Schema(msg) => write!(f, "invalid deployment spec: {msg}"),
            SpecError::UnknownKind(k) => write!(f, "actor kind {k:?} is not registered"),
            SpecError::UnknownName { kind, name } => {
                write!(f, "spec references unknown {kind} {name:?}")
            }
            SpecError::Constructor { kind, message } => {
                write!(f, "constructor for kind {kind:?} failed: {message}")
            }
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

/// The result of a registered actor constructor.
pub type ActorFactoryResult = Result<Box<dyn Actor>, String>;

type Factory = Box<dyn Fn(&Value) -> ActorFactoryResult + Send + Sync>;

/// Maps actor `kind` strings to constructors.
///
/// Applications register every actor type they ship; deployment files can
/// then instantiate them freely.
#[derive(Default)]
pub struct ActorRegistry {
    factories: HashMap<String, Factory>,
}

impl fmt::Debug for ActorRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut kinds: Vec<_> = self.factories.keys().collect();
        kinds.sort();
        f.debug_struct("ActorRegistry")
            .field("kinds", &kinds)
            .finish()
    }
}

impl ActorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a constructor for `kind`.
    ///
    /// The constructor receives the spec's `params` value and returns the
    /// actor or a human-readable error.
    pub fn register<F>(&mut self, kind: &str, factory: F) -> &mut Self
    where
        F: Fn(&Value) -> ActorFactoryResult + Send + Sync + 'static,
    {
        self.factories.insert(kind.to_owned(), Box::new(factory));
        self
    }

    /// Whether `kind` has a registered constructor.
    pub fn contains(&self, kind: &str) -> bool {
        self.factories.contains_key(kind)
    }

    fn construct(&self, kind: &str, params: &Value) -> Result<Box<dyn Actor>, SpecError> {
        let factory = self
            .factories
            .get(kind)
            .ok_or_else(|| SpecError::UnknownKind(kind.to_owned()))?;
        factory(params).map_err(|message| SpecError::Constructor {
            kind: kind.to_owned(),
            message,
        })
    }
}

impl DeploymentSpec {
    /// Parse a spec from JSON.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] on malformed JSON, [`SpecError::Schema`] when
    /// the document is not an object.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        let doc = json::parse(json).map_err(SpecError::Parse)?;
        if doc.as_object().is_none() {
            return Err(schema("deployment spec must be a JSON object"));
        }
        Ok(DeploymentSpec { doc })
    }

    /// Instantiate every actor through `registry` and assemble a
    /// [`DeploymentBuilder`].
    ///
    /// # Errors
    ///
    /// [`SpecError::Schema`] for a member of the wrong type or a number
    /// out of range, [`SpecError::UnknownKind`],
    /// [`SpecError::UnknownName`] or [`SpecError::Constructor`];
    /// structural problems (double assignment, etc.) surface later from
    /// [`DeploymentBuilder::build`].
    pub fn into_builder(self, registry: &ActorRegistry) -> Result<DeploymentBuilder, SpecError> {
        let doc = &self.doc;
        let mut b = DeploymentBuilder::new();
        let mut enclave_slots = HashMap::new();
        for e in list(doc, "enclaves")? {
            let name = req_str(e, "name", "enclave")?;
            let size = opt_num(e, "size_bytes", "enclave")?.unwrap_or(DEFAULT_ENCLAVE_BYTES);
            enclave_slots.insert(name, b.enclave_sized(name, size));
        }
        let region = |v: &Value, what: &str| match opt_str(v, "enclave", what)? {
            None => Ok(Placement::Untrusted),
            Some(name) => enclave_slots
                .get(name)
                .map(|slot| Placement::Enclave(*slot))
                .ok_or_else(|| SpecError::UnknownName {
                    kind: "enclave",
                    name: name.to_owned(),
                }),
        };
        let mut actor_slots = HashMap::new();
        for a in list(doc, "actors")? {
            let name = req_str(a, "name", "actor")?;
            let kind = req_str(a, "kind", "actor")?;
            let placement = region(a, "actor")?;
            let actor = registry.construct(kind, a.get("params").unwrap_or(&Value::Null))?;
            actor_slots.insert(name, b.actor_boxed(name, placement, actor));
        }
        let lookup_actors = |names: &[&str]| {
            names
                .iter()
                .map(|name| {
                    actor_slots
                        .get(name)
                        .copied()
                        .ok_or_else(|| SpecError::UnknownName {
                            kind: "actor",
                            name: (*name).to_owned(),
                        })
                })
                .collect::<Result<Vec<_>, _>>()
        };
        for w in list(doc, "workers")? {
            let slots = lookup_actors(&opt_str_array(w, "actors", "worker")?.unwrap_or_default())?;
            match opt_num(w, "cpu", "worker")? {
                Some(cpu) => b.worker_pinned(&slots, cpu),
                None => b.worker(&slots),
            };
        }
        for c in list(doc, "channels")? {
            let ends = lookup_actors(&[req_str(c, "a", "channel")?, req_str(c, "b", "channel")?])?;
            let defaults = ChannelOptions::default();
            let options = ChannelOptions {
                nodes: opt_num(c, "nodes", "channel")?.unwrap_or(defaults.nodes),
                payload: opt_num(c, "payload", "channel")?.unwrap_or(defaults.payload),
                policy: match c.get("encrypted") {
                    None | Some(Value::Null) => EncryptionPolicy::Auto,
                    Some(e) => match e.as_bool() {
                        Some(false) => EncryptionPolicy::NeverEncrypt,
                        Some(true) => EncryptionPolicy::Auto,
                        None => return Err(schema("channel \"encrypted\" must be a boolean")),
                    },
                },
            };
            b.channel_with(ends[0], ends[1], options);
        }
        for p in list(doc, "pools")? {
            b.pool(
                req_str(p, "name", "pool")?,
                region(p, "pool")?,
                req_num(p, "nodes", "pool")?,
                req_num(p, "payload", "pool")?,
            );
        }
        for m in list(doc, "mboxes")? {
            let name = req_str(m, "name", "mbox")?;
            let pool = req_str(m, "pool", "mbox")?;
            let capacity = req_num(m, "capacity", "mbox")?;
            // An absent role is "undeclared"; a present one, even empty,
            // is a declaration. Names resolve either way, so typos fail
            // loudly, but only a mbox with both roles declared leaves
            // the open MPMC protocol.
            let producers = opt_str_array(m, "producers", "mbox")?
                .map(|names| lookup_actors(&names))
                .transpose()?;
            let consumers = opt_str_array(m, "consumers", "mbox")?
                .map(|names| lookup_actors(&names))
                .transpose()?;
            match (producers, consumers) {
                (Some(p), Some(c)) => b.mbox_bound(name, pool, capacity, &p, &c),
                _ => b.mbox(name, pool, capacity),
            };
        }
        Ok(b)
    }
}

fn schema(message: &str) -> SpecError {
    SpecError::Schema(message.to_owned())
}

/// The elements of an optional array member of `doc`.
fn list<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], SpecError> {
    match doc.get(key) {
        None | Some(Value::Null) => Ok(&[]),
        Some(v) => v
            .as_array()
            .ok_or_else(|| schema(&format!("\"{key}\" must be an array"))),
    }
}

fn req_str<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, SpecError> {
    opt_str(v, key, what)?.ok_or_else(|| schema(&format!("{what} is missing \"{key}\"")))
}

fn opt_str<'a>(v: &'a Value, key: &str, what: &str) -> Result<Option<&'a str>, SpecError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(s) => s
            .as_str()
            .map(Some)
            .ok_or_else(|| schema(&format!("{what} \"{key}\" must be a string"))),
    }
}

/// An optional array of strings: `None` when the member is absent.
fn opt_str_array<'a>(
    v: &'a Value,
    key: &str,
    what: &str,
) -> Result<Option<Vec<&'a str>>, SpecError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(a) => a
            .as_array()
            .ok_or_else(|| schema(&format!("{what} \"{key}\" must be an array")))?
            .iter()
            .map(|s| {
                s.as_str()
                    .ok_or_else(|| schema(&format!("{what} \"{key}\" must contain strings")))
            })
            .collect::<Result<_, _>>()
            .map(Some),
    }
}

fn req_num<T: TryFrom<u64>>(v: &Value, key: &str, what: &str) -> Result<T, SpecError> {
    opt_num(v, key, what)?.ok_or_else(|| schema(&format!("{what} is missing \"{key}\"")))
}

/// An optional non-negative integer that must fit the builder's type
/// for it: a value the target cannot hold is rejected, never truncated.
fn opt_num<T: TryFrom<u64>>(v: &Value, key: &str, what: &str) -> Result<Option<T>, SpecError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(n) => {
            let n = n.as_u64().ok_or_else(|| {
                schema(&format!("{what} \"{key}\" must be a non-negative integer"))
            })?;
            T::try_from(n)
                .map(Some)
                .map_err(|_| schema(&format!("{what} \"{key}\" is out of range: {n}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Control, Ctx};

    struct Idle;
    impl Actor for Idle {
        fn body(&mut self, _ctx: &mut Ctx) -> Control {
            Control::Park
        }
    }

    fn registry() -> ActorRegistry {
        let mut r = ActorRegistry::new();
        r.register("idle", |_| Ok(Box::new(Idle)));
        r.register("picky", |params| {
            if params.get("ok").is_some() {
                Ok(Box::new(Idle))
            } else {
                Err("missing 'ok' parameter".to_owned())
            }
        });
        r
    }

    const FULL: &str = r#"{
        "enclaves": [{"name": "e", "size_bytes": 65536}],
        "actors": [
            {"name": "a", "kind": "idle", "enclave": "e"},
            {"name": "b", "kind": "picky", "params": {"ok": true}}
        ],
        "workers": [{"actors": ["a"], "cpu": 1}, {"actors": ["b"]}],
        "channels": [{"a": "a", "b": "b", "nodes": 8, "payload": 128, "encrypted": false}],
        "pools": [{"name": "p", "nodes": 8, "payload": 64}],
        "mboxes": [
            {"name": "m", "pool": "p", "capacity": 8},
            {"name": "m2", "pool": "p", "capacity": 8, "producers": ["a"], "consumers": ["b"]}
        ]
    }"#;

    #[test]
    fn the_same_document_builds_the_same_deployment() {
        use crate::arena::MboxKind::{Mpmc, Spsc};
        let shape = || {
            let d = DeploymentSpec::from_json(FULL)
                .unwrap()
                .into_builder(&registry())
                .unwrap()
                .build()
                .unwrap();
            (
                d.actor_count(),
                d.worker_count(),
                d.plan().mbox_kinds().to_vec(),
            )
        };
        assert_eq!(shape(), (2, 2, vec![Mpmc, Spsc]));
        assert_eq!(shape(), shape());
    }

    #[test]
    fn unknown_kind_rejected() {
        let spec = DeploymentSpec::from_json(
            r#"{"actors": [{"name": "x", "kind": "nosuch"}], "workers": [{"actors": ["x"]}]}"#,
        )
        .unwrap();
        assert!(matches!(
            spec.into_builder(&registry()),
            Err(SpecError::UnknownKind(k)) if k == "nosuch"
        ));
    }

    #[test]
    fn unknown_enclave_rejected() {
        let spec = DeploymentSpec::from_json(
            r#"{"actors": [{"name": "x", "kind": "idle", "enclave": "ghost"}]}"#,
        )
        .unwrap();
        assert!(matches!(
            spec.into_builder(&registry()),
            Err(SpecError::UnknownName {
                kind: "enclave",
                ..
            })
        ));
    }

    #[test]
    fn unknown_actor_in_worker_rejected() {
        let spec = DeploymentSpec::from_json(r#"{"workers": [{"actors": ["ghost"]}]}"#).unwrap();
        assert!(matches!(
            spec.into_builder(&registry()),
            Err(SpecError::UnknownName { kind: "actor", .. })
        ));
    }

    #[test]
    fn constructor_error_is_reported() {
        let spec = DeploymentSpec::from_json(
            r#"{"actors": [{"name": "x", "kind": "picky"}], "workers": [{"actors": ["x"]}]}"#,
        )
        .unwrap();
        let err = spec.into_builder(&registry()).unwrap_err();
        assert!(err.to_string().contains("missing 'ok'"));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(
            DeploymentSpec::from_json("{nope"),
            Err(SpecError::Parse(_))
        ));
        assert!(matches!(
            DeploymentSpec::from_json("[]"),
            Err(SpecError::Schema(_))
        ));
        // Numbers are range-checked against the builder's type for the
        // field, never truncated into it.
        for (doc, field) in [
            (
                r#"{"pools": [{"name": "p", "nodes": 4294967297, "payload": 64}]}"#,
                "nodes",
            ),
            (
                r#"{"actors": [{"name": "x", "kind": "idle"}, {"name": "y", "kind": "idle"}],
                    "channels": [{"a": "x", "b": "y", "nodes": 4294967296}]}"#,
                "nodes",
            ),
            (
                r#"{"pools": [{"name": "p", "nodes": 8, "payload": -1}]}"#,
                "payload",
            ),
            (
                r#"{"pools": [{"name": "p", "nodes": 8, "payload": 64}],
                    "mboxes": [{"name": "m", "pool": "p", "capacity": 1.5}]}"#,
                "capacity",
            ),
        ] {
            let spec = DeploymentSpec::from_json(doc).unwrap();
            match spec.into_builder(&registry()) {
                Err(SpecError::Schema(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("{doc}: expected a schema error, got {other:?}"),
            }
        }
    }

    #[test]
    fn full_spec_builds_and_validates() {
        let spec = DeploymentSpec::from_json(
            r#"{
                "enclaves": [{"name": "e1"}, {"name": "e2"}],
                "actors": [
                    {"name": "p", "kind": "idle", "enclave": "e1"},
                    {"name": "q", "kind": "idle", "enclave": "e2"}
                ],
                "workers": [{"actors": ["p"]}, {"actors": ["q"], "cpu": 1}],
                "channels": [{"a": "p", "b": "q", "nodes": 8, "payload": 128}]
            }"#,
        )
        .unwrap();
        let deployment = spec.into_builder(&registry()).unwrap().build().unwrap();
        assert_eq!(deployment.actor_count(), 2);
        assert_eq!(deployment.enclave_count(), 2);
        assert_eq!(deployment.worker_count(), 2);
    }

    #[test]
    fn mbox_roles_prove_cursor_protocols() {
        let spec = DeploymentSpec::from_json(
            r#"{
                "actors": [
                    {"name": "p", "kind": "idle"},
                    {"name": "q", "kind": "idle"},
                    {"name": "r", "kind": "idle"}
                ],
                "workers": [{"actors": ["p", "q"]}, {"actors": ["r"]}],
                "pools": [{"name": "pool", "nodes": 8, "payload": 64}],
                "mboxes": [
                    {"name": "spsc", "pool": "pool", "capacity": 8,
                     "producers": ["p"], "consumers": ["q"]},
                    {"name": "mpsc", "pool": "pool", "capacity": 8,
                     "producers": ["p", "r"], "consumers": ["q"]},
                    {"name": "open", "pool": "pool", "capacity": 8}
                ]
            }"#,
        )
        .unwrap();
        let deployment = spec.into_builder(&registry()).unwrap().build().unwrap();
        assert_eq!(
            deployment.plan().mbox_kinds(),
            [
                crate::arena::MboxKind::Spsc,
                crate::arena::MboxKind::Mpsc,
                crate::arena::MboxKind::Mpmc
            ]
        );
    }

    #[test]
    fn unknown_actor_in_mbox_role_rejected() {
        let spec = DeploymentSpec::from_json(
            r#"{
                "actors": [{"name": "p", "kind": "idle"}],
                "workers": [{"actors": ["p"]}],
                "pools": [{"name": "pool", "nodes": 8, "payload": 64}],
                "mboxes": [{"name": "m", "pool": "pool", "capacity": 8,
                            "producers": ["ghost"], "consumers": ["p"]}]
            }"#,
        )
        .unwrap();
        assert!(matches!(
            spec.into_builder(&registry()),
            Err(SpecError::UnknownName { kind: "actor", .. })
        ));
    }

    #[test]
    fn registry_debug_lists_kinds() {
        let r = registry();
        let s = format!("{r:?}");
        assert!(s.contains("idle") && s.contains("picky"));
        assert!(r.contains("idle"));
        assert!(!r.contains("ghost"));
    }
}
