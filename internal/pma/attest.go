package pma

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/rand"

	"softsec/internal/kernel"
	"softsec/internal/seedrand"
)

// Hardware models the trusted hardware of a Protected Module Architecture:
// a fused platform secret, module-key derivation from the module's code
// hash, remote attestation, sealing, and monotonic counters in simulated
// NVRAM.
//
// The trust argument mirrors Sancus/SGX: the module key is
// HMAC(platformSecret, hash(code)), so software — including the operating
// system — that tampers with the module's code before loading obtains a
// module with a *different* key, and its attestation reports verify
// against nothing.
type Hardware struct {
	platformSecret [32]byte
	counters       map[string]uint64
	rng            *rand.Rand
}

// NewHardware creates a platform with a secret derived from seed
// (deterministic for reproducible experiments; a real platform fuses
// randomness at manufacturing).
func NewHardware(seed int64) *Hardware {
	h := &Hardware{counters: make(map[string]uint64), rng: seedrand.New(seed)}
	r := seedrand.New(seed ^ 0x5ecf_ab1e)
	r.Read(h.platformSecret[:])
	return h
}

// CodeHash hashes module code — the module's identity.
func CodeHash(code []byte) [32]byte { return sha256.Sum256(code) }

// ModuleKey derives the module-private key from the code identity. The
// module provider receives this key out of band at provisioning time
// (Sancus's K_{SP,module}); nobody else can compute it without the
// platform secret.
func (h *Hardware) ModuleKey(codeHash [32]byte) []byte {
	mac := hmac.New(sha256.New, h.platformSecret[:])
	mac.Write(codeHash[:])
	return mac.Sum(nil)
}

// Attest produces an attestation report over nonce for the module whose
// code currently occupies [m.CodeStart, m.CodeEnd) in the process. The
// report is HMAC(moduleKey, nonce), so it proves both the platform (key
// derivation needs the platform secret) and the exact loaded code (the
// key depends on its hash).
func (h *Hardware) Attest(proc *kernel.Process, m Module, nonce []byte) []byte {
	code, _ := proc.Mem.PeekRaw(m.CodeStart, int(m.CodeEnd-m.CodeStart))
	key := h.ModuleKey(CodeHash(code))
	mac := hmac.New(sha256.New, key)
	mac.Write(nonce)
	return mac.Sum(nil)
}

// VerifyAttestation is the remote verifier: it knows the module key (from
// provisioning) and checks the report over its fresh nonce.
func VerifyAttestation(moduleKey, nonce, report []byte) bool {
	mac := hmac.New(sha256.New, moduleKey)
	mac.Write(nonce)
	return hmac.Equal(mac.Sum(nil), report)
}

// Seal encrypts state under the module key with authenticated encryption
// (AES-256-GCM). aux is authenticated but not encrypted (schemes bind
// counters through it).
func (h *Hardware) Seal(moduleKey, plaintext, aux []byte) ([]byte, error) {
	gcm, err := h.gcm(moduleKey)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	h.rng.Read(nonce)
	return append(nonce, gcm.Seal(nil, nonce, plaintext, aux)...), nil
}

// Unseal reverses Seal, failing on any tampering with blob or aux.
func (h *Hardware) Unseal(moduleKey, blob, aux []byte) ([]byte, error) {
	gcm, err := h.gcm(moduleKey)
	if err != nil {
		return nil, err
	}
	if len(blob) < gcm.NonceSize() {
		return nil, fmt.Errorf("pma: sealed blob too short")
	}
	pt, err := gcm.Open(nil, blob[:gcm.NonceSize()], blob[gcm.NonceSize():], aux)
	if err != nil {
		return nil, fmt.Errorf("pma: unseal: %w", err)
	}
	return pt, nil
}

func (h *Hardware) gcm(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:32])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// CounterRead returns the monotonic counter for id (zero if never used).
func (h *Hardware) CounterRead(id string) uint64 { return h.counters[id] }

// CounterIncrement bumps and returns the monotonic counter. Counters live
// in simulated NVRAM: they survive module restarts and cannot be decreased
// by anyone, including the OS.
func (h *Hardware) CounterIncrement(id string) uint64 {
	h.counters[id]++
	return h.counters[id]
}
