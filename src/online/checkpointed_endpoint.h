// In-process endpoint whose ingest path is crash-durable.
//
// LocalEndpoint (runtime/endpoint.h) feeds samples straight into the slave;
// this variant routes them through a core::SlaveCheckpointer first, so every
// streamed second is journaled before it mutates the slave's models
// (journal-then-ingest, see fchain/recovery.h) and the slave auto-checkpoints
// on the checkpointer's sample-time cadence. Analysis RPCs go straight to
// the slave — they read state, so they need no durability hop. Plugging this
// into OnlineMonitor::addEndpoint gives an online deployment whose slaves
// survive a crash with zero learned-history loss: recover() rebuilds them
// bit-identically and streaming resumes where it stopped.
//
// Header-only for the same layering reason as LocalEndpoint: it touches
// fchain_core types, and the link-level dependency points the other way.
#pragma once

#include "fchain/recovery.h"
#include "runtime/endpoint.h"

namespace fchain::online {

class CheckpointedEndpoint final : public runtime::SlaveEndpoint {
 public:
  /// Both the slave and its checkpointer must outlive the endpoint, and the
  /// checkpointer must wrap this same slave.
  CheckpointedEndpoint(core::FChainSlave* slave,
                       core::SlaveCheckpointer* checkpointer)
      : slave_(slave), checkpointer_(checkpointer) {}

  HostId host() const override { return slave_->host(); }

  runtime::ComponentListReply listComponents() override {
    return {runtime::EndpointStatus::Ok, slave_->components()};
  }

  runtime::AnalyzeBatchReply analyzeBatch(
      const runtime::AnalyzeBatchRequest& request) override {
    runtime::AnalyzeBatchReply reply;
    reply.status = runtime::EndpointStatus::Ok;
    reply.findings =
        slave_->analyzeBatch(request.components, request.violation_time);
    return reply;
  }

  runtime::IngestReply ingest(const runtime::IngestRequest& request) override {
    checkpointer_->ingestAt(request.component, request.t, request.sample);
    return {runtime::EndpointStatus::Ok, 0.0};
  }

 private:
  core::FChainSlave* slave_;
  core::SlaveCheckpointer* checkpointer_;
};

}  // namespace fchain::online
