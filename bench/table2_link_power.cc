/**
 * @file
 * Regenerates Table 2: per-component link power at the full operating
 * point (10 Gb/s, 1.8 V) with each component's scaling trend, plus the
 * power of both link schemes across the 6-level 5-10 Gb/s table —
 * including the paper's quoted 61.25 mW VCSEL link at 5 Gb/s — and a
 * cross-check of the trend model against the full Eqs. 1-9 component
 * models.
 */

#include "bench_util.hh"
#include "phy/bitrate_levels.hh"
#include "phy/link_power.hh"
#include "phy/modulator.hh"
#include "phy/receiver.hh"
#include "phy/vcsel.hh"

using namespace oenet;
using namespace oenet::bench;

int
main(int argc, char **argv)
{
    // Analytical tables only: no sweep, so no sweep flag has anything
    // to act on. Refuse them rather than accept and ignore them.
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            std::printf("usage: %s\n  prints Table 2 and writes "
                        "table2_*.csv; takes no flags\n",
                        argv[0]);
            return 0;
        }
        fatal("%s: '%s' rejected: Table 2 is analytical (no sweep, no "
              "simulation), so it takes no flags except --help",
              argv[0], argv[i]);
    }
    banner("Table 2", "Power consumption and scaling trends of the "
                      "link components");

    {
        Table t("Table 2: component budget at 10 Gb/s, 1.8 V",
                "table2_components.csv",
                {"component", "power_mW", "scaling"});
        LinkPowerModel vcsel(LinkScheme::kVcsel);
        LinkPowerModel mod(LinkScheme::kModulator);
        auto dv = vcsel.breakdown(10.0, 1.8);
        auto dm = mod.breakdown(10.0, 1.8);
        t.row({"VCSEL", formatDouble(dv.txLaserMw, 1), "~Vdd"});
        t.row({"VCSEL driver", formatDouble(dv.txDriverMw, 1),
               "Vdd^2*BR"});
        t.row({"Modulator driver", formatDouble(dm.txDriverMw, 1),
               "BR"});
        t.row({"TIA", formatDouble(dv.tiaMw, 1), "Vdd*BR"});
        t.row({"CDR", formatDouble(dv.cdrMw, 1), "Vdd^2*BR"});
        t.row({"Photodetector", formatDouble(dv.detectorMw, 2),
               "~optical"});
        t.row({"total (VCSEL link)", formatDouble(dv.totalMw, 1), ""});
        t.row({"total (modulator link)", formatDouble(dm.totalMw, 1),
               ""});
        t.print();
    }

    {
        Table t("Link power across the 6-level 5-10 Gb/s table",
                "table2_levels.csv",
                {"br_gbps", "vdd_v", "vcsel_mW", "modulator_mW",
                 "vcsel_saving", "modulator_saving"});
        auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
        LinkPowerModel vcsel(LinkScheme::kVcsel);
        LinkPowerModel mod(LinkScheme::kModulator);
        for (int i = 0; i < levels.numLevels(); i++) {
            const auto &lv = levels.level(i);
            double pv = vcsel.powerMw(lv.brGbps, lv.vddV);
            double pm = mod.powerMw(lv.brGbps, lv.vddV);
            t.rowNumeric({lv.brGbps, lv.vddV, pv, pm,
                          1.0 - pv / vcsel.maxPowerMw(),
                          1.0 - pm / mod.maxPowerMw()});
        }
        t.print();
        std::printf("   paper quotes: 290 mW/link at 10 Gb/s, 61.25 mW "
                    "VCSEL link at 5 Gb/s (~80%% saving)\n");
    }

    {
        Table t("Trend model vs. physical Eqs. 1-9 (VCSEL link, "
                "no detector)",
                "table2_crosscheck.csv",
                {"br_gbps", "trend_mW", "equations_mW", "ratio"});
        LinkPowerModel trend(LinkScheme::kVcsel);
        Vcsel vcsel;
        VcselDriver driver;
        Tia tia;
        Cdr cdr;
        for (double br : {5.0, 6.0, 7.0, 8.0, 9.0, 10.0}) {
            double v = 1.8 * br / 10.0;
            double physical = vcsel.averagePowerMw(v) +
                              driver.powerMw(v, br) +
                              tia.powerMw(br, v) + cdr.powerMw(v, br);
            double modeled = trend.powerMw(br, v) -
                             trend.breakdown(br, v).detectorMw;
            t.rowNumeric({br, modeled, physical, modeled / physical});
        }
        t.print();
    }
    return 0;
}
