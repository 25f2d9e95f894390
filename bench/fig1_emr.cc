// Reproduces Figure 1: auditor's loss versus audit budget on the EMR game
// (synthetic Rea A; see docs/DESIGN.md for the substitution), comparing the
// proposed model (ISHM + CGGS at eps = 0.1/0.2/0.3) with the three
// baselines: random thresholds, random orders, greedy by benefit.
#include "bench/figure_common.h"
#include "data/emr.h"

int main(int argc, char** argv) {
  return auditgame::bench::RunFigureDriver(
      argc, argv,
      {"fig1_emr", "Figure 1: auditor loss vs budget (EMR / Rea A synthetic)",
       "10,20,30,40,50,60,70,80,90,100", "20180113"},
      [] { return auditgame::data::MakeEmrGame(); });
}
