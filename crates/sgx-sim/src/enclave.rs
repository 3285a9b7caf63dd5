//! Simulated enclaves: isolated execution contexts with identity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::costs::CostHandle;
use crate::crypto::{hash_bytes, mix64};
use crate::domain::{self, current_domain, Domain, DomainGuard};
use crate::error::SgxError;

/// Opaque identifier of an enclave within its [`crate::Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnclaveId(u32);

impl EnclaveId {
    /// Build an id from its raw index (test and framework use).
    pub fn from_raw(raw: u32) -> Self {
        EnclaveId(raw)
    }

    /// The raw index.
    pub fn as_raw(&self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for EnclaveId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "enclave#{}", self.0)
    }
}

/// The identity (MRENCLAVE analogue) of an enclave: a digest of its name,
/// standing in for the measured code/data pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub(crate) u64);

impl Measurement {
    /// The raw digest value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
pub(crate) struct EnclaveInner {
    pub(crate) id: EnclaveId,
    pub(crate) name: String,
    pub(crate) measurement: Measurement,
    pub(crate) costs: CostHandle,
    pub(crate) memory_bytes: AtomicU64,
    /// Per-platform secret shared by all enclaves (models the CPU's fused
    /// keys used for sealing and local attestation).
    pub(crate) platform_secret: u64,
    /// Monotonic counter feeding the trusted randomness source.
    pub(crate) rng_counter: AtomicU64,
    pub(crate) rng_seed: u64,
}

impl Drop for EnclaveInner {
    fn drop(&mut self) {
        self.costs
            .epc_free(self.memory_bytes.load(Ordering::Relaxed));
    }
}

/// A simulated SGX enclave.
///
/// Cheap to clone (a reference-counted handle). Created with
/// [`crate::Platform::create_enclave`]; its EPC reservation is released
/// when the last handle drops.
///
/// # Examples
///
/// ```
/// use sgx_sim::{Domain, Platform};
///
/// let platform = Platform::builder().build();
/// let enclave = platform.create_enclave("db", 64 * 1024)?;
/// let answer = enclave.ecall(|| {
///     assert!(sgx_sim::current_domain().is_trusted());
///     21 * 2
/// });
/// assert_eq!(answer, 42);
/// assert_eq!(sgx_sim::current_domain(), Domain::Untrusted);
/// # Ok::<(), sgx_sim::SgxError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Enclave {
    pub(crate) inner: Arc<EnclaveInner>,
}

impl Enclave {
    pub(crate) fn new(
        id: EnclaveId,
        name: &str,
        costs: CostHandle,
        platform_secret: u64,
        initial_bytes: u64,
    ) -> Self {
        let measurement = Measurement(hash_bytes(0x5EED_0000_4D45_4153, name.as_bytes()));
        Enclave {
            inner: Arc::new(EnclaveInner {
                id,
                name: name.to_owned(),
                measurement,
                costs,
                memory_bytes: AtomicU64::new(initial_bytes),
                platform_secret,
                rng_counter: AtomicU64::new(0),
                rng_seed: mix64(platform_secret ^ measurement.0),
            }),
        }
    }

    /// This enclave's id.
    pub fn id(&self) -> EnclaveId {
        self.inner.id
    }

    /// The name given at creation (used to derive the measurement).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The enclave's identity digest (MRENCLAVE analogue).
    pub fn measurement(&self) -> Measurement {
        self.inner.measurement
    }

    /// The execution domain of this enclave.
    pub fn domain(&self) -> Domain {
        Domain::Enclave(self.inner.id)
    }

    /// The cost handle charges flow through.
    pub fn costs(&self) -> CostHandle {
        self.inner.costs.clone()
    }

    /// Enter the enclave, returning a guard that leaves it on drop.
    ///
    /// Entering from untrusted code charges one boundary crossing (EENTER);
    /// the guard's drop charges the matching EEXIT. Entering while already
    /// inside this enclave is free — the property EActors workers exploit.
    pub fn enter(&self) -> DomainGuard {
        let prev = domain::switch_to(&self.inner.costs, self.domain());
        DomainGuard::new(self.inner.costs.clone(), prev)
    }

    /// Run `f` inside the enclave (an ECall), charging entry and exit.
    pub fn ecall<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter();
        f()
    }

    /// Run `f` in the untrusted domain (an OCall), charging exit and
    /// re-entry, plus a boundary copy of `bytes` for the marshalled
    /// arguments.
    ///
    /// # Errors
    ///
    /// [`SgxError::WrongDomain`] if the calling thread is not inside this
    /// enclave.
    pub fn ocall<R>(&self, bytes: usize, f: impl FnOnce() -> R) -> Result<R, SgxError> {
        if current_domain() != self.domain() {
            return Err(SgxError::WrongDomain {
                expected: "inside this enclave (OCall source)",
            });
        }
        self.inner.costs.charge_copy(bytes);
        let prev = domain::switch_to(&self.inner.costs, Domain::Untrusted);
        let result = f();
        domain::switch_to(&self.inner.costs, prev);
        Ok(result)
    }

    /// Register `bytes` of additional enclave memory (heap growth at
    /// startup; EActors preallocates, so this is a boot-time operation).
    pub fn grow(&self, bytes: u64) {
        self.inner.memory_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.inner.costs.epc_alloc(bytes);
    }

    /// Bytes of EPC this enclave currently accounts for.
    pub fn memory_bytes(&self) -> u64 {
        self.inner.memory_bytes.load(Ordering::Relaxed)
    }

    /// Fill `buf` from the trusted randomness source (`sgx_read_rand`).
    ///
    /// Deliberately slow per the cost model — the paper identifies this as
    /// the SMC bottleneck (§6.3.1).
    ///
    /// # Errors
    ///
    /// [`SgxError::WrongDomain`] if called from outside this enclave.
    pub fn read_rand(&self, buf: &mut [u8]) -> Result<(), SgxError> {
        if current_domain() != self.domain() {
            return Err(SgxError::WrongDomain {
                expected: "inside this enclave (sgx_read_rand)",
            });
        }
        self.inner.costs.charge_trusted_rng(buf.len());
        let base = self
            .inner
            .rng_counter
            .fetch_add(buf.len().div_ceil(8) as u64, Ordering::Relaxed);
        for (i, chunk) in buf.chunks_mut(8).enumerate() {
            let word = mix64(self.inner.rng_seed ^ (base + i as u64));
            let bytes = word.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use crate::CostModel;

    fn platform() -> Platform {
        Platform::builder().cost_model(CostModel::zero()).build()
    }

    #[test]
    fn ecall_switches_domain_and_back() {
        let p = platform();
        let e = p.create_enclave("e", 4096).unwrap();
        assert_eq!(current_domain(), Domain::Untrusted);
        e.ecall(|| assert_eq!(current_domain(), Domain::Enclave(e.id())));
        assert_eq!(current_domain(), Domain::Untrusted);
    }

    #[test]
    fn nested_enter_same_enclave_is_free() {
        let p = platform();
        let e = p.create_enclave("e", 4096).unwrap();
        let _outer = e.enter();
        let before = p.stats().transitions();
        e.ecall(|| ());
        assert_eq!(p.stats().transitions(), before);
    }

    #[test]
    fn ocall_requires_being_inside() {
        let p = platform();
        let e = p.create_enclave("e", 4096).unwrap();
        assert!(e.ocall(0, || ()).is_err());
        e.ecall(|| {
            let out = e
                .ocall(0, || {
                    assert_eq!(current_domain(), Domain::Untrusted);
                    5
                })
                .unwrap();
            assert_eq!(out, 5);
            assert_eq!(current_domain(), Domain::Enclave(e.id()));
        });
    }

    #[test]
    fn ocall_counts_two_more_crossings() {
        let p = platform();
        let e = p.create_enclave("e", 4096).unwrap();
        e.ecall(|| {
            let before = p.stats().transitions();
            e.ocall(0, || ()).unwrap();
            assert_eq!(p.stats().transitions() - before, 2);
        });
    }

    #[test]
    fn measurement_depends_on_name_only() {
        let p = platform();
        let a1 = p.create_enclave("alpha", 4096).unwrap();
        let a2 = p.create_enclave("alpha", 4096).unwrap();
        let b = p.create_enclave("beta", 4096).unwrap();
        assert_eq!(a1.measurement(), a2.measurement());
        assert_ne!(a1.measurement(), b.measurement());
        assert_ne!(a1.id(), a2.id());
    }

    #[test]
    fn read_rand_fills_and_varies() {
        let p = platform();
        let e = p.create_enclave("e", 4096).unwrap();
        e.ecall(|| {
            let mut a = [0u8; 32];
            let mut b = [0u8; 32];
            e.read_rand(&mut a).unwrap();
            e.read_rand(&mut b).unwrap();
            assert_ne!(a, b);
            assert_ne!(a, [0u8; 32]);
        });
        let mut c = [0u8; 8];
        assert!(e.read_rand(&mut c).is_err());
    }

    #[test]
    fn grow_registers_epc() {
        let p = platform();
        let e = p.create_enclave("e", 4096).unwrap();
        let before = e.memory_bytes();
        e.grow(8192);
        assert_eq!(e.memory_bytes() - before, 8192);
    }

    #[test]
    fn dropping_enclave_releases_epc() {
        let p = platform();
        let used_before = p.costs().epc_used();
        {
            let _e = p.create_enclave("temp", 1 << 20).unwrap();
            assert!(p.costs().epc_used() > used_before);
        }
        assert_eq!(p.costs().epc_used(), used_before);
    }

    #[test]
    fn display_and_raw_roundtrip() {
        let id = EnclaveId::from_raw(3);
        assert_eq!(id.as_raw(), 3);
        assert_eq!(id.to_string(), "enclave#3");
    }
}
