// Reproduces Figure 2: auditor's loss versus audit budget on the credit
// application game (synthetic Rea B; see docs/DESIGN.md for the substitution),
// comparing the proposed model (ISHM + CGGS) with the three baselines.
#include "bench/figure_common.h"
#include "data/credit.h"

int main(int argc, char** argv) {
  return auditgame::bench::RunFigureDriver(
      argc, argv,
      {"fig2_credit",
       "Figure 2: auditor loss vs budget (credit / Rea B synthetic)",
       "10,30,50,70,90,110,130,150,170,190,210,230,250", "20180114"},
      [] { return auditgame::data::MakeCreditGame(); });
}
