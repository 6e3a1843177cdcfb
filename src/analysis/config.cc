#include "src/analysis/config.h"

namespace tcprx::analysis {

const Config& ProjectConfig() {
  static const Config config{
      // The simulation must be a pure function of its seed. Wall clocks and global
      // entropy sources are banned everywhere except the sanctioned wrappers.
      .determinism_banned_calls =
          {
              "rand", "srand", "random", "srandom", "drand48", "lrand48", "mrand48",
              "time", "clock", "clock_gettime", "gettimeofday", "getrandom", "getentropy",
          },
      .determinism_banned_types =
          {
              "random_device", "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
              "default_random_engine", "ranlux24", "ranlux48", "knuth_b",
              "system_clock", "steady_clock", "high_resolution_clock",
          },
      .determinism_exempt_files = {"src/util/rng.h", "src/util/sim_time.h"},

      // The receive-path DAG: each layer may include itself plus the layers listed
      // here. A src/ layer absent from this table may not include outside itself.
      .layer_allow =
          {
              {"src/util", {}},
              {"src/cpu", {"src/util"}},
              {"src/wire", {"src/util"}},
              {"src/buffer", {"src/util", "src/wire"}},
              {"src/nic", {"src/util", "src/wire", "src/buffer"}},
              {"src/driver", {"src/util", "src/cpu", "src/buffer", "src/nic"}},
              {"src/ip", {"src/util", "src/wire", "src/buffer"}},
              {"src/tcp", {"src/util", "src/wire", "src/buffer"}},
              {"src/core", {"src/util", "src/wire", "src/buffer", "src/tcp"}},
              {"src/xen", {"src/util", "src/cpu", "src/buffer"}},
              {"src/stack",
               {"src/util", "src/cpu", "src/wire", "src/buffer", "src/nic", "src/driver",
                "src/ip", "src/tcp", "src/core", "src/xen"}},
              {"src/smp",
               {"src/util", "src/cpu", "src/wire", "src/buffer", "src/nic", "src/driver",
                "src/ip", "src/tcp", "src/core", "src/xen", "src/stack"}},
              {"src/sim",
               {"src/util", "src/cpu", "src/wire", "src/buffer", "src/nic", "src/driver",
                "src/ip", "src/tcp", "src/core", "src/xen", "src/stack", "src/smp"}},
              {"src/fuzz",
               {"src/util", "src/cpu", "src/wire", "src/buffer", "src/nic", "src/driver",
                "src/ip", "src/tcp", "src/core", "src/xen", "src/stack", "src/smp",
                "src/sim"}},
              {"src/analysis", {}},
          },

      // Only the helpers may byte-swap; everything else goes through LoadBe*/StoreBe*.
      .byteorder_helper_files = {"src/util/byte_order.h"},
      .byteorder_banned =
          {
              "htons", "ntohs", "htonl", "ntohl",
              "bswap_16", "bswap_32", "bswap_64",
              "__builtin_bswap16", "__builtin_bswap32", "__builtin_bswap64",
          },

      // In these layers, a function that touches packet headers/payload must bill the
      // cycles through a Charge* call in the same function, or carry an allow
      // annotation explaining which caller pays.
      .charge_layers = {"src/driver", "src/ip", "src/tcp", "src/stack", "src/core"},
      .charge_primitives =
          {
              "memcpy", "memmove", "memset",
              "ParseEthernet", "ParseIpv4", "ParseTcp", "ParseTcpFrame",
              "SerializeEthernet", "SerializeIpv4", "SerializeTcp", "BuildTcpFrame",
              "WriteTcpFrame",
              "TcpChecksum", "VerifyTcpChecksum", "VerifyFrameTcpChecksum",
              "VerifyIpv4Checksum",
              "InternetChecksum",
          },
      .charge_calls =
          {
              "Charge", "ChargeLocks", "ChargeWakeup", "ChargeTxStackPass",
              "ChargeSharedLine",
          },

      // Instances of these classes are shared across per-core stack shards; every
      // mutable data member must declare its sharing discipline.
      .smp_layer = "src/smp",
      .smp_shared_classes = {"InterCoreModel", "FlowDirector"},
      .smp_annotations = {"TCPRX_GUARDED_BY", "TCPRX_SHARED"},
  };
  return config;
}

}  // namespace tcprx::analysis
