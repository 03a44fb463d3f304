# Bench binaries land directly in ${CMAKE_BINARY_DIR}/bench so that
#   for b in build/bench/*; do $b; done
# runs exactly the reproduction harness, one binary per table/figure.
function(pcn_add_bench name)
  add_executable(${name} ${CMAKE_CURRENT_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE pcn pcn_warnings)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

pcn_add_bench(table1_one_dim)
pcn_add_bench(table2_two_dim)
pcn_add_bench(fig4_cost_vs_mobility)
pcn_add_bench(fig5_cost_vs_callrate)
pcn_add_bench(ablation_partitioning)
pcn_add_bench(ablation_optimizer)
pcn_add_bench(ablation_policies)
pcn_add_bench(sim_validation)
# The validation report reuses the statistical oracles from the test
# support library (tests/ is added before this file, so the target exists).
target_link_libraries(sim_validation PRIVATE pcn_testsupport)
pcn_add_bench(ablation_adaptive)
pcn_add_bench(signalling_overhead)

# Micro-benchmarks use google-benchmark.
add_executable(perf_micro ${CMAKE_CURRENT_SOURCE_DIR}/bench/perf_micro.cpp)
target_link_libraries(perf_micro PRIVATE pcn benchmark::benchmark
                      pcn_warnings)
set_target_properties(perf_micro PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Multi-core scaling: simulator throughput over terminals x threads, then
# the paired-block overhead probe (tools/run_checks.sh gate 4).
add_executable(perf_scale ${CMAKE_CURRENT_SOURCE_DIR}/bench/perf_scale.cpp)
target_link_libraries(perf_scale PRIVATE pcn benchmark::benchmark
                      pcn_warnings)
set_target_properties(perf_scale PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
