// Framed wire protocol for the out-of-process master <-> slave transport.
//
// Every message travels as one persist-codec frame (persist/codec.h):
//
//   magic "FCWR" u32 | version u32 | payload length u64 | payload crc32 u32
//   | payload bytes
//
// so the transport inherits the crash-tolerance layer's guarantees verbatim:
// a torn or bit-flipped frame is rejected with the byte offset of the
// damage (persist::CorruptDataError), never crashed on, never read as
// garbage. The payload is a u8 message tag followed by little-endian codec
// fields; doubles are bit-cast, so an AnalyzeBatchReply decodes to the
// *exact* finding bits the slave computed — the multi-process identity
// guarantee (byte-identical PinpointResults over sockets) depends on that.
//
// Protocol flow (see docs/ARCHITECTURE.md "Multi-process deployment"):
//
//   client                               server (fchain_slave)
//   ------ connect ---------------------------------------------
//   Hello{version}              ->
//                               <-       HelloReply{version, host,
//                                          identity_hash, components}
//   ------ steady state ----------------------------------------
//   AnalyzeBatchRequest         ->
//                               <-       AnalyzeBatchReply
//   IngestRequest{deadline,     ->
//     N x (component, t, sample)}
//                               <-       IngestReply (one per batch)
//   ListComponentsRequest       ->
//                               <-       ListComponentsReply
//   ------ errors ----------------------------------------------
//                               <-       Error{code, message}
//
// The handshake doubles as component-claim registration: HelloReply carries
// the slave's identity hash (a deterministic function of host id + sorted
// component claims, see slaveIdentityHash), so a reconnect to a restarted —
// or checkpoint-recovered — slave re-registers idempotently, while a second
// live process claiming the same slave id with *different* components is
// rejected as split-brain (runtime/slave_registry.h).
//
// Layering note: like endpoint.h, this header references fchain_core structs
// (core::ComponentFinding) but only as plain data — wire.cpp compiles into
// fchain_runtime and links only fchain_persist + fchain_common.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "runtime/endpoint.h"

namespace fchain::runtime::wire {

/// "FCWR" little-endian, sibling of persist's "FCSN"/"FCJL"/"FCIJ" magics.
inline constexpr std::uint32_t kWireMagic = 0x52574346;
/// Version 2: tag 5 (IngestRequest) carries a batch of samples instead of
/// one. Version 1 peers are refused at the handshake.
inline constexpr std::uint32_t kWireVersion = 2;

/// Upper bound on any frame payload. A peer announcing more is lying or
/// corrupt (the largest legitimate message — a batch reply with findings for
/// every component of a large app — is orders of magnitude smaller), so the
/// frame is rejected before any allocation happens.
inline constexpr std::uint64_t kMaxFramePayload = 16ull << 20;

/// First payload byte of every frame.
enum class MsgType : std::uint8_t {
  Hello = 1,
  HelloReply = 2,
  AnalyzeBatchRequest = 3,
  AnalyzeBatchReply = 4,
  IngestRequest = 5,  ///< a batch: decodes to runtime::IngestBatchRequest
  IngestReply = 6,
  ListComponentsRequest = 7,
  ListComponentsReply = 8,
  Error = 9,
  Shutdown = 10,
};

/// Client -> server connection opener.
struct Hello {
  std::uint32_t protocol_version = kWireVersion;
};

/// Server -> client handshake reply: who this slave is and what it claims.
struct HelloReply {
  std::uint32_t protocol_version = kWireVersion;
  HostId host = 0;
  /// slaveIdentityHash(host, components): stable across restart + checkpoint
  /// recovery, distinct across different component claims.
  std::uint64_t identity_hash = 0;
  std::vector<ComponentId> components;
};

enum class ErrorCode : std::uint32_t {
  VersionMismatch = 1,  ///< peer speaks a protocol version we do not
  BadRequest = 2,       ///< frame decoded but the message was malformed
  ShuttingDown = 3,     ///< server is draining; do not retry here
};

struct WireError {
  ErrorCode code = ErrorCode::BadRequest;
  std::string message;
};

struct ListComponentsRequest {};
struct Shutdown {};

using Message =
    std::variant<Hello, HelloReply, AnalyzeBatchRequest, AnalyzeBatchReply,
                 IngestBatchRequest, IngestReply, ListComponentsRequest,
                 ComponentListReply, WireError, Shutdown>;

/// Deterministic identity of a slave's claim: FNV-1a over the host id and
/// the *sorted* component list. A restarted (or recovered) slave serving the
/// same manifest hashes identically — reconnect re-registers idempotently —
/// while any difference in the claim set yields a different hash, which the
/// split-brain guard rejects.
std::uint64_t slaveIdentityHash(HostId host,
                                std::vector<ComponentId> components);

// --- Encoding (returns a complete frame, ready to send) --------------------

std::vector<std::uint8_t> encodeHello(const Hello& msg);
std::vector<std::uint8_t> encodeHelloReply(const HelloReply& msg);
std::vector<std::uint8_t> encodeAnalyzeBatchRequest(
    const AnalyzeBatchRequest& msg);
std::vector<std::uint8_t> encodeAnalyzeBatchReply(const AnalyzeBatchReply& msg);
/// One-sample batch: the same tag-5 frame as encodeIngestBatchRequest.
std::vector<std::uint8_t> encodeIngestRequest(const IngestRequest& msg);
std::vector<std::uint8_t> encodeIngestBatchRequest(
    const IngestBatchRequest& msg);
std::vector<std::uint8_t> encodeIngestReply(const IngestReply& msg);
std::vector<std::uint8_t> encodeListComponentsRequest();
std::vector<std::uint8_t> encodeListComponentsReply(
    const ComponentListReply& msg);
std::vector<std::uint8_t> encodeError(const WireError& msg);
std::vector<std::uint8_t> encodeShutdown();

// --- Decoding --------------------------------------------------------------

/// Decodes a complete frame (header + payload): magic / version / length /
/// CRC validation via persist::unframe, an oversized-payload bound, then
/// the tagged message body with every enum range-checked and trailing bytes
/// rejected. Throws persist::CorruptDataError (carrying the byte offset of
/// the damage) on any violation.
Message decodeMessage(std::span<const std::uint8_t> frame_bytes);

/// Decodes an already-unframed payload (the tag byte onward). Same
/// validation and error contract as decodeMessage; offsets are relative to
/// the payload.
Message decodePayload(std::span<const std::uint8_t> payload);

}  // namespace fchain::runtime::wire
