// Example: an EnKF-style ensemble workflow spanning two TeraGrid sites.
//
// Demonstrates: building DAGs with the template builders, automatic
// earliest-start placement, cross-site data staging over the WAN, failure
// retries, and reading workflow results — the "workflow/ensemble" usage
// modality from the inside.
//
// Run: ./build/examples/ensemble_workflow
#include <iostream>

#include "accounting/usage_db.hpp"
#include "util/table.hpp"
#include "workflow/engine.hpp"

using namespace tg;

int main() {
  const Platform platform = teragrid_2010();
  Engine engine;
  SchedulerPool pool(engine, platform);
  FlowManager flows(engine, platform);
  UsageDatabase db;
  Recorder recorder(platform, db);
  recorder.attach(pool);
  recorder.attach(flows);
  WorkflowEngine workflows(engine, pool, flows, /*retry_limit=*/2);

  // One assimilation cycle: setup on Ranger, 48 ensemble members wherever
  // the metascheduler finds the earliest start, then a merge step that
  // pulls every member's 2 GB of output back together.
  DagTask setup;
  setup.nodes = 1;
  setup.actual_runtime = 20 * kMinute;
  setup.requested_walltime = kHour;
  setup.resource = platform.compute_by_name("Ranger").id;
  setup.output_bytes = 500e6;  // initial conditions shipped to members

  DagTask member;
  member.nodes = 4;
  member.actual_runtime = 2 * kHour;
  member.requested_walltime = 4 * kHour;
  member.output_bytes = 2e9;  // forecasts shipped to the merge step

  DagTask merge;
  merge.nodes = 8;
  merge.actual_runtime = 40 * kMinute;
  merge.requested_walltime = 2 * kHour;
  merge.resource = platform.compute_by_name("Ranger").id;

  // Chain three assimilation cycles; a couple of members fail transiently
  // and are retried by the engine.
  std::cout << "Running 3 EnKF cycles of 48 members each...\n\n";
  int cycles_done = 0;
  Table t({"Cycle", "Makespan", "Tasks", "Failures", "Data moved (GB)"});

  std::function<void(int)> run_cycle = [&](int cycle) {
    DagTask flaky_member = member;
    flaky_member.fails = (cycle == 1);  // inject failures in cycle 2
    flaky_member.fail_after = 10 * kMinute;
    Dag dag = make_fan_out_fan_in(48, setup, flaky_member, merge);
    workflows.submit(std::move(dag), UserId{1}, ProjectId{1},
                     [&, cycle](const WorkflowResult& r) {
                       t.add_row({std::to_string(cycle + 1),
                                  format_duration(r.makespan()),
                                  std::to_string(r.tasks),
                                  std::to_string(r.failures),
                                  Table::num(r.bytes_moved / 1e9, 1)});
                       ++cycles_done;
                       if (cycle + 1 < 3) run_cycle(cycle + 1);
                     });
  };
  run_cycle(0);
  engine.run();

  std::cout << t << "\n";

  // What the central database saw.
  double nu = 0.0;
  int jobs = 0;
  for (const JobRecord& r : db.jobs()) {
    if (r.workflow.valid()) {
      ++jobs;
      nu += r.charged_nu;
    }
  }
  std::cout << "Accounting view: " << jobs << " workflow-tagged jobs, "
            << Table::num(nu, 0) << " NUs charged, "
            << db.transfers().size() << " WAN transfers\n"
            << "Cycles completed: " << cycles_done << "/3\n";
  return 0;
}
