// Fig. 3 reproduction: attack packet dropping accuracy (alpha).
//   (a) alpha vs total traffic volume for Pd in {70, 80, 90}%
//   (b) alpha vs total traffic volume for per-zombie rates R
//       (paper legend: 100k-1M; we sweep 1/4/8 Mb/s — see EXPERIMENTS.md
//       for the rate-scaling substitution).

#include "bench_common.hpp"

int main() {
  using namespace mafic;
  using namespace mafic::bench;

  const auto alpha = [](const metrics::Metrics& m) { return m.alpha * 100; };

  run_figure("Fig. 3(a): accuracy vs traffic volume, by Pd", volume_axis(),
             pd_series(), alpha, "alpha(%)", {}, 2);

  std::vector<Series> rates;
  for (const double r : {8e6, 4e6, 1e6}) {
    rates.push_back({"R=" + std::to_string(int(r / 1e6)) + "Mb/s",
                     [r](scenario::ExperimentConfig& cfg) {
                       cfg.attack_army_total_bps = 0.0;  // per-zombie rate
                       cfg.attack_rate_bps = r;
                     }});
  }
  run_figure("Fig. 3(b): accuracy vs traffic volume, by source rate R",
             volume_axis(), rates, alpha, "alpha(%)", {}, 2);

  std::printf("\npaper: alpha stays within 99.2-99.8%% across all settings\n");

  // Sharded-datapath cross-check: the same figure points driven through
  // the 4-shard burst datapath must reproduce the scalar path's
  // classification decisions exactly (fixed seed, stateless Pd coins).
  std::printf("\n== sharded datapath cross-check (burst=8) ==\n");
  bool ok = true;
  for (const std::size_t vt : {30, 70}) {
    scenario::ExperimentConfig base;
    base.seed = 42;
    base.total_flows = vt;
    base.link_burst_size = 8;
    const auto run = [&](std::size_t shards) {
      scenario::ExperimentConfig cfg = base;
      cfg.num_shards = shards;
      scenario::Experiment exp(cfg);
      return exp.run();
    };
    const scenario::ExperimentResult scalar = run(1);
    const scenario::ExperimentResult sharded = run(4);
    const bool same = scalar.moved_to_nft == sharded.moved_to_nft &&
                      scalar.moved_to_pdt == sharded.moved_to_pdt &&
                      scalar.sft_admissions == sharded.sft_admissions &&
                      scalar.metrics.alpha == sharded.metrics.alpha;
    std::printf("  Vt=%zu: scalar alpha %.3f%% vs 4-shard %.3f%% — %s\n",
                vt, scalar.metrics.alpha * 100,
                sharded.metrics.alpha * 100,
                same ? "identical decisions" : "DIVERGED");
    ok = ok && same;
  }
  return ok ? 0 : 1;
}
