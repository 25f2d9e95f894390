# Runs the smoke benches, writing their BENCH reports into OUT_DIR, then
# gates each report against the baseline of the same name at the repo root
# with tools/bench_compare.py. The --require keys below must exist in both
# reports, so a regenerated baseline cannot drop a gate. Fails after all
# smokes and comparisons ran if any of them failed. Usage:
#   cmake -DBENCH_DIR=<bench binaries> -DOUT_DIR=<dir> -DSOURCE_DIR=<repo>
#         -DPYTHON=<python3> -P bench_gates.cmake
file(MAKE_DIRECTORY ${OUT_DIR})
set(failures "")

# The smoke exit codes tell why a run tripped (bench/exit_codes.h).
function(smoke name)
  execute_process(COMMAND ${BENCH_DIR}/${name} ${ARGN} RESULT_VARIABLE code)
  if(code EQUAL 0)
    return()
  elseif(code EQUAL 3)
    set(why "report I/O failure")
  elseif(code EQUAL 4)
    set(why "backend disagreement")
  else()
    set(why "solver failure")
  endif()
  list(APPEND failures "${name} smoke: ${why} (exit ${code})")
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

function(gate report)
  execute_process(COMMAND ${PYTHON} ${SOURCE_DIR}/tools/bench_compare.py
                          ${SOURCE_DIR}/${report} ${OUT_DIR}/${report} ${ARGN}
                  RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    list(APPEND failures "bench_compare ${report}: exit ${code}")
    set(failures "${failures}" PARENT_SCOPE)
  endif()
endfunction()

smoke(micro_simplex --smoke_json=${OUT_DIR}/BENCH_micro_simplex.json)
smoke(micro_cggs --smoke_json=${OUT_DIR}/BENCH_micro_cggs.json)
smoke(micro_detection --smoke_json=${OUT_DIR}/BENCH_micro_detection.json)
smoke(micro_frame --json=${OUT_DIR}/BENCH_micro_frame.json)
smoke(micro_cache --json=${OUT_DIR}/BENCH_cache.json)
smoke(scenario_suite --json=${OUT_DIR}/BENCH_scenario.json --reps=2)

# Every steady-state allocation counter of the simplex.
gate(BENCH_micro_simplex.json
     --require "cases[0].revised_allocations_per_solve"
     --require "cases[1].revised_allocations_per_solve"
     --require "cases[2].revised_allocations_per_solve")
# CGGS's mean gap to the exact LP must exist and must not grow: the
# deterministic check on any change to pricing arithmetic. ishm_sweeps[2-5]
# are the catalog's zipf at T = 8 and T = 10, so large-T sweeps are gated.
gate(BENCH_micro_cggs.json
     --require pricing_quality.cggs_gap_to_lp_mean
     --require "cases[0].incremental_allocations_per_solve"
     --require "cases[1].incremental_allocations_per_solve"
     --require "cases[2].incremental_allocations_per_solve"
     --require "ishm_sweeps[2].ishm_master_iterations"
     --require "ishm_sweeps[3].ishm_master_iterations"
     --require "ishm_sweeps[4].ishm_master_iterations"
     --require "ishm_sweeps[5].ishm_master_iterations")
gate(BENCH_micro_detection.json)
gate(BENCH_micro_frame.json)
# A cache-hit cycle's allocations, a tenant's serialized state bytes and a
# shard tenant's live heap (without and with its own ingested
# distributions) are deterministic; the cycle time rides along as context.
gate(BENCH_cache.json
     --require cache_hit_allocations_per_cycle
     --require tenant_state_bytes
     --require tenant_heap_bytes
     --require ingested_tenant_heap_bytes
     --require zero_drift_identity)
# The Stackelberg adversary drill's fields are deterministic (seeded
# attacker, serial solves); timings in the same report are never gated.
gate(BENCH_scenario.json
     --require adversary.tracking_within_2x
     --require adversary.exploitability_gap_max
     --require adversary.regret_gap_max
     --require adversary.cycles_completed)

if(failures)
  list(JOIN failures "\n  " text)
  message(FATAL_ERROR "bench gates failed:\n  ${text}")
endif()
