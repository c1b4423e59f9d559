#include "runtime/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

namespace edx {

const char *
pipeNodeName(int node)
{
    switch (static_cast<PipeNode>(node)) {
      case PipeNode::Fe:
        return "FE";
      case PipeNode::Sm:
        return "SM";
      case PipeNode::Tm:
        return "TM";
      case PipeNode::Solve:
        return "SOLVE";
      case PipeNode::Finish:
        return "FIN";
    }
    return "?";
}

std::string
describeCuts(const std::vector<int> &cuts)
{
    std::string out;
    size_t next_cut = 0;
    for (int node = 0; node < kPipelineNodes; ++node) {
        if (node > 0) {
            if (next_cut < cuts.size() && cuts[next_cut] == node - 1) {
                out += " | ";
                ++next_cut;
            } else {
                out += "+";
            }
        }
        out += pipeNodeName(node);
    }
    return out;
}

void
FramePipeline::checkCuts(const std::vector<int> &cuts)
{
    int prev = -1;
    for (int c : cuts) {
        if (c < 0 || c >= kPipelineNodes - 1)
            throw std::invalid_argument(
                "PipelineConfig: cut " + std::to_string(c) +
                " outside the valid boundaries [0, " +
                std::to_string(kPipelineNodes - 2) + "]");
        if (c <= prev)
            throw std::invalid_argument(
                "PipelineConfig: cuts must be strictly increasing");
        prev = c;
    }
}

const PipelineConfig &
FramePipeline::checked(const PipelineConfig &cfg)
{
    checkCuts(cfg.cuts);
    return cfg;
}

int
FramePipeline::frontendLanes(const std::vector<int> &cuts, int cpus)
{
    const int stages = static_cast<int>(cuts.size()) + 1;
    // One CPU per stage worker and one for the producer and consumer
    // around the pipeline; a single stage takes every CPU.
    const int busy = stages == 1 ? 1 : stages + 1;
    const int spare = std::max(0, cpus - busy);
    // FE is node 0, so it always runs in the first stage; a cut before
    // TM puts TM in another stage, running beside FE.
    const bool fe_beside_tm =
        !cuts.empty() && cuts.front() < static_cast<int>(PipeNode::Tm);
    return (fe_beside_tm ? spare / 2 : spare) + 1;
}

FramePipeline::FramePipeline(Localizer &localizer,
                             const PipelineConfig &cfg)
    : cfg_(checked(cfg)),
      pool_(PoolConfig{.workers = static_cast<int>(cfg.cuts.size()) + 1,
                       .queue_capacity = cfg.queue_capacity},
            &localizer, cfg.cuts, cfg.replanner)
{}

FramePipeline::~FramePipeline() { close(); }

bool
FramePipeline::submit(FrameInput input)
{
    return pool_.submit(kSession, std::move(input));
}

bool
FramePipeline::swapCuts(const std::vector<int> &cuts)
{
    checkCuts(cuts);
    return pool_.setCuts(kSession, cuts);
}

bool
FramePipeline::poll(LocalizationResult &out)
{
    PoolResult r;
    if (!pool_.poll(r))
        return false;
    out = std::move(r.result);
    return true;
}

bool
FramePipeline::awaitResult(LocalizationResult &out)
{
    PoolResult r;
    if (!pool_.awaitResult(r))
        return false;
    out = std::move(r.result);
    return true;
}

void
FramePipeline::flush()
{
    pool_.drain();
}

void
FramePipeline::close()
{
    pool_.shutdown();
}

std::vector<int>
FramePipeline::cuts() const
{
    std::lock_guard<std::mutex> lk(pool_.m_);
    return pool_.sessions_[kSession]->cuts;
}

PipelineStats
FramePipeline::stats() const
{
    std::lock_guard<std::mutex> lk(pool_.m_);
    const LocalizerPool::Session &s = *pool_.sessions_[kSession];
    PipelineStats st;
    st.frames = s.stats.completed;
    st.stages = static_cast<int>(s.cuts.size()) + 1;
    st.stage_busy_ms = s.stage_busy_ms;
    st.wall_ms = s.wall_ms;
    st.input_high_water = s.pending_high_water;
    st.cut_swaps = s.cut_swaps;
    return st;
}

} // namespace edx
