//! Content-addressed snapshot layers.
//!
//! A layer is the unit of storage and sharing: one per-epoch overlay
//! delta, one master-mapping image, or one processor-context dump, in a
//! canonical little-endian encoding whose trailing FNV-1a checksum *is*
//! the layer's content id (so the id both names the file and
//! authenticates every byte in it). Layers embed the id of their parent
//! layer — the previous epoch's delta — forming the same committed
//! parent chains ross's overlay snapshotter uses; two backups whose
//! epoch prefixes agree therefore produce byte-identical chain
//! prefixes, which is what makes incremental backup ("only layers
//! absent from the store are written") fall out of content addressing
//! alone.

use std::fmt;

use crate::error::StoreError;

/// Layer encoding schema this build reads and writes.
pub const LAYER_SCHEMA: u16 = 1;

/// Magic bytes opening every layer file.
pub const LAYER_MAGIC: [u8; 4] = *b"NVL1";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes` — the store's fingerprint function (the
/// same one the trace reader and serve report already use).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A layer's content id: the FNV-1a 64 fingerprint of its encoded
/// bytes. Displayed (and stored on disk) as 16 lowercase hex digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LayerId(pub u64);

impl LayerId {
    /// The id sealed into encoded layer bytes: their trailing checksum.
    pub(crate) fn sealed(encoded: &[u8]) -> LayerId {
        LayerId(read_u64(encoded, encoded.len() - 8))
    }

    /// Parses the 16-hex-digit form produced by `Display`.
    pub fn parse(hex: &str) -> Option<LayerId> {
        if hex.len() != 16 {
            return None;
        }
        u64::from_str_radix(hex, 16).ok().map(LayerId)
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// What a layer holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerKind {
    /// The incremental overlay delta of exactly one epoch.
    Delta,
    /// The full master mapping (`Mmaster`) at the recoverable epoch.
    Master,
    /// Processor-context dumps (`(vd, epoch, blob)` triples).
    Context,
}

impl LayerKind {
    fn code(self) -> u8 {
        match self {
            LayerKind::Delta => 0,
            LayerKind::Master => 1,
            LayerKind::Context => 2,
        }
    }

    fn from_code(code: u8) -> Option<LayerKind> {
        match code {
            0 => Some(LayerKind::Delta),
            1 => Some(LayerKind::Master),
            2 => Some(LayerKind::Context),
            _ => None,
        }
    }

    /// Kebab-case name used in the manifest JSON.
    pub fn label(self) -> &'static str {
        match self {
            LayerKind::Delta => "delta",
            LayerKind::Master => "master",
            LayerKind::Context => "context",
        }
    }

    /// Inverse of [`LayerKind::label`].
    pub fn from_label(label: &str) -> Option<LayerKind> {
        match label {
            "delta" => Some(LayerKind::Delta),
            "master" => Some(LayerKind::Master),
            "context" => Some(LayerKind::Context),
            _ => None,
        }
    }
}

/// A layer's payload. Delta and master layers carry `(line, token)`
/// pairs sorted by line; context layers carry `(vd, epoch, blob)`
/// triples sorted by `(vd, epoch)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayerPayload {
    /// Sorted `(line_raw, token)` pairs.
    Lines(Vec<(u64, u64)>),
    /// Sorted `(vd, epoch, blob)` context triples.
    Contexts(Vec<(u64, u64, u64)>),
}

impl LayerPayload {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            LayerPayload::Lines(v) => v.len(),
            LayerPayload::Contexts(v) => v.len(),
        }
    }

    /// True when the payload holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One immutable, content-addressed snapshot layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layer {
    /// What the payload holds.
    pub kind: LayerKind,
    /// The epoch this layer describes (for master layers: the
    /// recoverable epoch the image was merged through; for context
    /// layers: the backup's recoverable epoch).
    pub epoch: u64,
    /// Id of the parent layer in the chain (the previous epoch's delta),
    /// if any.
    pub parent: Option<LayerId>,
    /// The entries.
    pub payload: LayerPayload,
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds checked"))
}

/// Encodes a layer from its parts: the fixed header, the `count`
/// entries `body` appends, and the trailing FNV-1a checksum.
fn encode_parts(
    kind: LayerKind,
    epoch: u64,
    parent: Option<LayerId>,
    count: usize,
    body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let stride = match kind {
        LayerKind::Context => 24,
        _ => 16,
    };
    let mut out = Vec::with_capacity(40 + count * stride);
    out.extend_from_slice(&LAYER_MAGIC);
    out.extend_from_slice(&LAYER_SCHEMA.to_le_bytes());
    out.push(kind.code());
    out.push(parent.is_some() as u8);
    push_u64(&mut out, epoch);
    push_u64(&mut out, parent.map_or(0, |p| p.0));
    push_u64(&mut out, count as u64);
    body(&mut out);
    let sum = fnv1a(&out);
    push_u64(&mut out, sum);
    out
}

/// [`Layer::encode`] of a delta or master layer over borrowed
/// `(line, token)` pairs, so a backup encodes a snapshot's lines without
/// first copying them into a [`Layer`].
pub(crate) fn encode_lines(
    kind: LayerKind,
    epoch: u64,
    parent: Option<LayerId>,
    pairs: &[(u64, u64)],
) -> Vec<u8> {
    debug_assert!(kind != LayerKind::Context, "context layers hold triples");
    encode_parts(kind, epoch, parent, pairs.len(), |out| {
        for &(line, token) in pairs {
            push_u64(out, line);
            push_u64(out, token);
        }
    })
}

impl Layer {
    /// Canonical encoded bytes, including the trailing checksum. Two
    /// layers with equal fields encode to identical bytes — the basis
    /// of both content addressing and the CI byte-identical-backup
    /// gate.
    pub fn encode(&self) -> Vec<u8> {
        match &self.payload {
            LayerPayload::Lines(pairs) => encode_lines(self.kind, self.epoch, self.parent, pairs),
            LayerPayload::Contexts(triples) => {
                encode_parts(self.kind, self.epoch, self.parent, triples.len(), |out| {
                    for &(vd, epoch, blob) in triples {
                        push_u64(out, vd);
                        push_u64(out, epoch);
                        push_u64(out, blob);
                    }
                })
            }
        }
    }

    /// The layer's content id — the same FNV-1a value `encode` appends
    /// as the checksum, so the file name authenticates the file body.
    pub fn id(&self) -> LayerId {
        LayerId::sealed(&self.encode())
    }

    /// Decodes and verifies `bytes`. `path` is only used to label
    /// errors.
    ///
    /// # Errors
    /// [`StoreError::Checksum`] on any framing or checksum failure;
    /// [`StoreError::SchemaVersion`] when the layer was written by a
    /// newer encoder.
    pub fn decode(bytes: &[u8], path: &str) -> Result<Layer, StoreError> {
        let corrupt = |detail: &str| StoreError::Checksum {
            path: path.to_string(),
            detail: detail.to_string(),
        };
        if bytes.len() < 40 {
            return Err(corrupt("file shorter than the fixed layer header"));
        }
        if bytes[..4] != LAYER_MAGIC {
            return Err(corrupt("bad magic (not a layer file)"));
        }
        let body = &bytes[..bytes.len() - 8];
        let stored_sum = read_u64(bytes, bytes.len() - 8);
        if fnv1a(body) != stored_sum {
            return Err(corrupt("FNV-1a checksum mismatch"));
        }
        let schema = u16::from_le_bytes([bytes[4], bytes[5]]);
        if schema > LAYER_SCHEMA {
            return Err(StoreError::SchemaVersion {
                found: schema as u64,
                supported: LAYER_SCHEMA as u64,
            });
        }
        let kind = LayerKind::from_code(bytes[6]).ok_or_else(|| corrupt("unknown layer kind"))?;
        let has_parent = match bytes[7] {
            0 => false,
            1 => true,
            _ => return Err(corrupt("bad parent flag")),
        };
        let epoch = read_u64(bytes, 8);
        let parent_raw = read_u64(bytes, 16);
        let count = read_u64(bytes, 24) as usize;
        let stride = match kind {
            LayerKind::Context => 24,
            _ => 16,
        };
        if body.len() != 32 + count * stride {
            return Err(corrupt("entry count disagrees with file length"));
        }
        let payload = match kind {
            LayerKind::Context => {
                let mut triples = Vec::with_capacity(count);
                for i in 0..count {
                    let at = 32 + i * 24;
                    triples.push((
                        read_u64(bytes, at),
                        read_u64(bytes, at + 8),
                        read_u64(bytes, at + 16),
                    ));
                }
                LayerPayload::Contexts(triples)
            }
            _ => {
                let mut pairs = Vec::with_capacity(count);
                for i in 0..count {
                    let at = 32 + i * 16;
                    pairs.push((read_u64(bytes, at), read_u64(bytes, at + 8)));
                }
                LayerPayload::Lines(pairs)
            }
        };
        Ok(Layer {
            kind,
            epoch,
            parent: has_parent.then_some(LayerId(parent_raw)),
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Layer {
        Layer {
            kind: LayerKind::Delta,
            epoch: 7,
            parent: Some(LayerId(0xdead_beef)),
            payload: LayerPayload::Lines(vec![(1, 10), (2, 20), (9, 90)]),
        }
    }

    #[test]
    fn encode_decode_round_trips_all_kinds() {
        for layer in [
            sample(),
            Layer {
                kind: LayerKind::Master,
                epoch: 3,
                parent: None,
                payload: LayerPayload::Lines(vec![]),
            },
            Layer {
                kind: LayerKind::Context,
                epoch: 3,
                parent: None,
                payload: LayerPayload::Contexts(vec![(0, 1, 42), (1, 3, 43)]),
            },
        ] {
            let bytes = layer.encode();
            assert_eq!(Layer::decode(&bytes, "t").unwrap(), layer);
        }
    }

    #[test]
    fn id_is_the_trailing_checksum_and_content_addressed() {
        let a = sample();
        let b = sample();
        assert_eq!(a.id(), b.id());
        let mut c = sample();
        c.epoch += 1;
        assert_ne!(a.id(), c.id());
        let mut d = sample();
        d.parent = None;
        assert_ne!(a.id(), d.id());
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let bytes = sample().encode();
        for bit in [0usize, 37, bytes.len() * 8 - 3] {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    Layer::decode(&bad, "t"),
                    Err(StoreError::Checksum { .. } | StoreError::SchemaVersion { .. })
                ),
                "flip at bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().encode();
        for keep in [0, 10, 39, bytes.len() - 1] {
            assert!(Layer::decode(&bytes[..keep], "t").is_err());
        }
    }

    #[test]
    fn future_schema_is_rejected_as_schema_version() {
        let mut bytes = sample().encode();
        let future = (LAYER_SCHEMA + 1).to_le_bytes();
        bytes[4] = future[0];
        bytes[5] = future[1];
        // Re-seal so the schema check (not the checksum) fires.
        let sum = fnv1a(&bytes[..bytes.len() - 8]);
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Layer::decode(&bytes, "t"),
            Err(StoreError::SchemaVersion { found, supported })
                if found == (LAYER_SCHEMA + 1) as u64 && supported == LAYER_SCHEMA as u64
        ));
    }
}
