// Wire codec for parameter traffic — version-based deltas + optional 8-bit
// linear quantization.
//
// The paper's volunteer setting is dominated by moving parameter files over
// slow WAN links (§II-A, §IV). BOINC answers with transparent on-the-wire
// compression; DeDLOC goes further with quantized gradient exchange. VCDL's
// wire codec sits between those two points:
//
//  * Blob-level deltas (`delta_encode`/`delta_decode`) let the FileServer
//    serve a client that already holds version `v` of a file the *difference*
//    against `v` instead of the whole payload. The engine encodes each 32-bit
//    word of the target as the zigzagged integer difference from the base
//    word (IEEE-754 bit patterns of same-sign floats order like integers, so
//    near-identical parameter copies yield small integers), transposes the
//    zigzag bytes into planes, and LZ-compresses — falling back to the raw
//    stream when LZ would expand, so a delta never costs more than the full
//    payload plus a header.
//
//  * Float-level frames (`encode_params_delta`/`encode_params_q8` +
//    `decode_params`) carry client→server result uploads as deltas against
//    the published base version the client trained from. The lossless mode
//    runs the same word-difference engine over the float bit patterns
//    (decode is bit-exact); the q8 mode linearly quantizes the float
//    difference to 8 bits per weight in 1 KiB blocks (~4x smaller uploads,
//    bounded per-weight error of half a quantization step per block).
//
// Frames are self-checksummed (FNV over the encoded body, same layout as
// nn/model_io), so the grid validator can reject a corrupted upload without
// holding the base parameters. Every decode is deterministic; the lossless
// mode reproduces the full-blob payload bit for bit, which is what keeps
// same-seed runs TraceDigest-identical (docs/SIMULATION.md §4b).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/blob.hpp"

namespace vcdl {

/// How parameter traffic is encoded on the simulated wire.
///  full      — whole (LZ-compressed) parameter blobs; the pre-codec behavior.
///  delta     — lossless: zigzag word-difference + byte-plane transpose + LZ.
///  delta_q8  — downloads as lossless deltas, uploads additionally quantized
///              to 8 bits per weight (lossy, ablation-bench territory).
enum class WireMode : std::uint8_t { full, delta, delta_q8 };

/// Parses an `ExperimentSpec::wire_codec` knob ("full" | "delta" |
/// "delta_q8"); throws InvalidArgument on anything else.
WireMode wire_mode_from_name(const std::string& name);
const char* wire_mode_name(WireMode mode);

// --- Blob-level deltas (FileServer download path) ---------------------------

/// Encodes `target` as a delta against `base`. Sizes may differ: the word
/// grid covers the common region (at the byte phase that encodes smallest),
/// the tail is carried through. Output is self-describing (magic + target
/// size + phase) but requires the exact `base` bytes to decode.
Blob delta_encode(std::span<const std::uint8_t> base,
                  std::span<const std::uint8_t> target);

/// Inverse of delta_encode(); throws CorruptData on malformed input or when
/// the decoded size disagrees with the encoded header.
Blob delta_decode(std::span<const std::uint8_t> base,
                  std::span<const std::uint8_t> encoded);

// --- Float parameter frames (client upload path) ----------------------------

/// Stable 64-bit FNV-1a hash of a parameter vector's bytes. Travels in every
/// frame header so a decoder can verify it still holds the *same* base the
/// frame was encoded against — version numbers alone are not enough when a
/// checkpoint replay rewinds the parameters without advancing the version.
std::uint64_t params_hash(std::span<const float> params);

/// Parsed frame header (see `read_frame_header`).
struct WireFrame {
  WireMode mode = WireMode::full;  // delta or delta_q8 in a valid frame
  std::uint64_t base_version = 0;  // assimilator commit count trained from
  std::uint64_t base_hash = 0;     // params_hash of the encode base
  std::uint64_t count = 0;         // number of float parameters
};

/// Lossless upload frame: zigzag word-difference of float bit patterns vs
/// `base`, transposed and LZ-compressed (raw fallback when LZ expands).
/// `decode_params` with the same base is bit-exact.
Blob encode_params_delta(std::span<const float> base,
                         std::span<const float> target,
                         std::uint64_t base_version);

/// Quantized upload frame: float difference (target - base) linearly
/// quantized to 8 bits per weight in 1024-weight blocks (per-block lo/hi
/// scale), then LZ-compressed. Per-weight absolute error is bounded by half
/// the block's quantization step.
Blob encode_params_q8(std::span<const float> base,
                      std::span<const float> target,
                      std::uint64_t base_version);

/// True when `payload` parses as a wire frame (structure only; the checksum
/// may still be wrong — see validate_frame). A full-blob parameter file from
/// nn/model_io never parses as a frame.
bool is_wire_frame(const Blob& payload);

/// True when `payload` is a structurally valid frame whose body checksum
/// matches — the grid validator's corruption screen, usable without the base.
bool validate_frame(const Blob& payload);

/// Header of a checksum-valid frame; throws CorruptData otherwise.
WireFrame read_frame_header(const Blob& payload);

/// Decodes a frame against `base` (which must hold exactly `count` floats —
/// the model's flat parameter vector). Throws CorruptData on checksum or
/// size mismatch. Deterministic for both modes. Does NOT require `base` to
/// match the frame's `base_hash`: the caller decides whether a different
/// base is acceptable (it is for q8's float-space diffs, never for delta's
/// bit-space diffs — see VcAsgdAssimilator::decode_upload).
std::vector<float> decode_params(const Blob& payload,
                                 std::span<const float> base);

// --- Shard bundles (sharded parameter plane, core/shard_plan.hpp) -----------

/// Packs one wire frame per parameter shard into a single upload container.
/// Only used at param_shards > 1 — a one-shard delta upload stays a bare
/// frame, bit-identical to the monolithic plane. Requires >= 2 parts.
Blob pack_shard_frames(const std::vector<Blob>& parts);

/// True when `payload` parses as a shard bundle (structure only). Bundles,
/// wire frames and full parameter blobs are mutually exclusive formats.
bool is_shard_bundle(const Blob& payload);

/// The bundle's per-shard frames, in shard order; throws CorruptData on a
/// malformed container or container-checksum mismatch.
std::vector<Blob> unpack_shard_frames(const Blob& payload);

/// Corruption screen for bundled uploads: container checksum plus
/// validate_frame on every part — usable without any decode base.
bool validate_shard_bundle(const Blob& payload);

}  // namespace vcdl
