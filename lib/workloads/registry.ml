type entry = {
  name : string;
  description : string;
  loop_splitting : bool;
  build : unit -> Cbsp_source.Ast.program;
}

let entry ?(loop_splitting = false) name description build =
  { name; description; loop_splitting; build }

let all =
  [ entry "ammp" "molecular dynamics; neighbor rebuild + force/integrate steps"
      Wk_ammp.program;
    entry "applu" "SSOR PDE solver; inlined+split solver loops defeat mapping"
      ~loop_splitting:true Wk_applu.program;
    entry "apsi" "air-pollution model; four kernels of differing CPI per step"
      Wk_apsi.program;
    entry "art" "neural-net image recognition; small hot working set"
      Wk_art.program;
    entry "bzip2" "block-sorting compression; sort/huffman/verify per block"
      Wk_bzip2.program;
    entry "crafty" "chess search; select-driven irregular node processing"
      Wk_crafty.program;
    entry "eon" "ray tracer; BVH pointer chase + local shading" Wk_eon.program;
    entry "equake" "sparse FEM earthquake sim; indirect gathers" Wk_equake.program;
    entry "fma3d" "crash simulation; element forces / contact / assembly"
      Wk_fma3d.program;
    entry "gcc" "compiler; many jittered pass behaviours, overflows max-k"
      Wk_gcc.program;
    entry "gzip" "LZ77 compression; hot-window deflate + cheap CRC phases"
      Wk_gzip.program;
    entry "lucas" "Lucas-Lehmer FFT; streaming butterfly sweeps" Wk_lucas.program;
    entry "mcf" "network simplex; multi-MB pointer chasing" Wk_mcf.program;
    entry "mesa" "software 3D rendering; transform + rasterize per frame"
      Wk_mesa.program;
    entry "perlbmk" "Perl interpreter; opcode dispatch + GC sweeps"
      Wk_perlbmk.program;
    entry "sixtrack" "particle tracking; one tight regular kernel"
      Wk_sixtrack.program;
    entry "swim" "shallow-water stencil; three streaming sweeps per step"
      Wk_swim.program;
    entry "twolf" "cell placement by annealing; random swap/eval/accept"
      Wk_twolf.program;
    entry "vortex" "OO database; transaction mix chasing the object graph"
      Wk_vortex.program;
    entry "vpr" "FPGA place then route; two macro-phases" Wk_vpr.program;
    entry "wupwise" "lattice QCD; blocked matvec + reductions" Wk_wupwise.program ]

let names = List.map (fun e -> e.name) all

let find name = List.find (fun e -> e.name = name) all
