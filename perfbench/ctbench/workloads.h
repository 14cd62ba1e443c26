// The four ctbench workloads. Each fills a Sheet with every metric it can
// measure (end-to-end and per-layer) and with its output gates; main.cpp
// selects what a run prints.
#pragma once

#include <string>

#include "common.h"
#include "core/case_study.h"
#include "service/protocol.h"

namespace ctbench {

namespace core = ct::core;
namespace service = ct::service;

/// Case-study knobs of a run: the run's seed drives the realization base
/// seed; fault injection is pinned off so the environment cannot leak in.
/// A non-empty `disk_dir` turns the on-disk result cache on there.
core::CaseStudyOptions case_options(const Context& ctx, unsigned jobs,
                                    const std::string& disk_dir = {});

/// The paper question: `ctctl analyze` over 1000 realizations.
service::Request analyze_request(bool no_cache);

/// Untimed short sweep (64 realizations at jobs=nproc) that lets code
/// pages, the allocator and lazy process-wide state settle before timing.
void warm_up_surge(const Context& ctx);

/// Full paper sweep cold at jobs=1 and jobs=nproc (cache and checkpoint
/// off), then warm answers from a disk cache by fresh runners. Traced runs
/// add the per-layer replay of every realization.
void run_paper_cold(const Context& ctx, Sheet& sheet);

/// Paper sweep interrupted after a fixed number of checkpoint slices and
/// resumed by a fresh runner from the journal.
void run_paper_resume(const Context& ctx, Sheet& sheet);

/// Open-loop mixed request load against an in-process service::Server.
void run_serve_mixed(const Context& ctx, Sheet& sheet);

/// ChaosRunner sweeps of benign and restart-heavy fault plans over the
/// five paper configurations, plus the compromise probes.
void run_chaos_sweep(const Context& ctx, Sheet& sheet);

}  // namespace ctbench
