#include "baselines/backends.h"

namespace neo::baselines {

using model::ModelConfig;

namespace {

ModelConfig
neo_config()
{
    ModelConfig cfg;
    cfg.use_klss = true;
    cfg.matmul_dataflow = true;
    cfg.radix16_ntt = true;
    cfg.tcu_ntt = true;
    cfg.policy.engine = EngineId::fp64_tcu;
    cfg.kernel_fusion = true;
    cfg.multistream = true;
    return cfg;
}

ModelConfig
tensorfhe_config()
{
    ModelConfig cfg;
    cfg.use_klss = false;
    cfg.matmul_dataflow = false; // element-wise BConv / IP
    cfg.radix16_ntt = false;     // four-step 256x256
    cfg.tcu_ntt = true;
    cfg.policy.engine = EngineId::int8_tcu;
    cfg.kernel_fusion = true;
    cfg.multistream = false;
    return cfg;
}

} // namespace

Backend
make_neo(char set)
{
    return Backend{std::string("Neo/Set-") + set, ckks::paper_set(set),
                   neo_config()};
}

Backend
make_neo_ss()
{
    return Backend{"Neo_SS/Set-G", ckks::paper_set('G'), neo_config()};
}

Backend
make_tensorfhe(char set)
{
    return Backend{std::string("TensorFHE/Set-") + set,
                   ckks::paper_set(set), tensorfhe_config()};
}

Backend
make_tensorfhe_ss()
{
    return Backend{"TensorFHE_SS/Set-F", ckks::paper_set('F'),
                   tensorfhe_config()};
}

Backend
make_heongpu()
{
    ModelConfig cfg;
    cfg.use_klss = false;
    cfg.matmul_dataflow = false;
    cfg.radix16_ntt = false;
    cfg.tcu_ntt = false; // butterfly NTT on CUDA cores
    cfg.policy.engine = EngineId::scalar;
    cfg.kernel_fusion = true;
    cfg.multistream = false;
    cfg.batched_pipeline = false; // parallelises within one ciphertext
    return Backend{"HEonGPU/Set-E", ckks::paper_set('E'), cfg};
}

gpusim::DeviceSpec
cpu_device()
{
    // The CPU rows of Tables 5/6 come from CraterLake's / 100x's
    // software baseline, which is effectively a single-threaded
    // Lattigo/SEAL-style run — so the device model is one fast core,
    // not the whole 32-core socket.
    gpusim::DeviceSpec d;
    d.name = "Hygon C86 7285 (software baseline)";
    d.fp64_cuda_flops = 0.05e12;
    d.fp64_tcu_flops = 0;
    d.int8_tcu_ops = 0;
    d.int32_cuda_ops = 0.03e12;
    d.hbm_bandwidth = 20e9;
    d.num_sms = 1;
    d.vram_bytes = 512e9;
    d.eff_mem = 0.6;
    d.eff_cuda = 0.5;
    d.kernel_launch_s = 0.2e-6; // a function call, not a GPU launch
    return d;
}

Backend
make_cpu()
{
    ModelConfig cfg;
    cfg.device = cpu_device();
    cfg.use_klss = false;
    cfg.matmul_dataflow = false;
    cfg.radix16_ntt = false;
    cfg.tcu_ntt = false;
    cfg.policy.engine = EngineId::scalar;
    cfg.kernel_fusion = true;
    cfg.multistream = false;
    cfg.batched_pipeline = false;
    return Backend{"CPU/Set-H", ckks::paper_set('H'), cfg};
}

std::vector<Backend>
ablation_ladder()
{
    std::vector<Backend> ladder;

    // Rung 0: TensorFHE's mapping at Set-C parameters, so the +KLSS
    // rung isolates the method switch at fixed d_num (the Table 5
    // "TensorFHE Set-C" row).
    ladder.push_back(make_tensorfhe('C'));

    // Rung 1: +KLSS — switch the KeySwitch method; kernels still
    // element-wise, NTT still four-step INT8.
    {
        Backend b = make_tensorfhe('C');
        b.name = "+KLSS";
        b.cfg.use_klss = true;
        ladder.push_back(b);
    }
    // Rung 2: +dataflow — BConv and IP become matrix multiplications
    // with the optimized layouts (still INT8 engine).
    {
        Backend b = ladder.back();
        b.name = "+dataflow opted";
        b.cfg.matmul_dataflow = true;
        ladder.push_back(b);
    }
    // Rung 3: +ten-step NTT.
    {
        Backend b = ladder.back();
        b.name = "+ten-step NTT";
        b.cfg.radix16_ntt = true;
        ladder.push_back(b);
    }
    // Rung 4: +FP64 TCU — the paper's final Neo configuration.
    {
        Backend b = ladder.back();
        b.name = "+FP64 TCU";
        b.cfg.policy.engine = EngineId::fp64_tcu;
        b.cfg.multistream = true;
        ladder.push_back(b);
    }
    // Rung 5: +element-wise fusion — fold the ModDown fix and NTT
    // twiddle passes into their neighbouring kernels (PR 6 layer;
    // beyond the paper's Fig 14 axes).
    {
        Backend b = ladder.back();
        b.name = "+kernel fusion (elementwise)";
        b.cfg.policy.fuse = true;
        ladder.push_back(b);
    }
    // Rung 6: +graph capture — the whole kernel DAG replays with one
    // amortized launch.
    {
        Backend b = ladder.back();
        b.name = "+graph capture";
        b.cfg.policy.graph = true;
        ladder.push_back(b);
    }
    return ladder;
}

} // namespace neo::baselines
