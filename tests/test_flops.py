import pytest

from csdenoise.csdn import CsdnConfig, build_csdn
from csdenoise.modules import Conv2d
from csdenoise.pcn import PcnConfig, build_pcn


def total_flops(net):
    return sum(flops for _, flops in net.flops_layers())


def test_single_conv_cost_example():
    # 3x3 conv, 16->16 channels, dense: 2 * 9 * 16 * 16
    layer = Conv2d(16, 16, 3)
    assert layer.flops_per_pixel() == 4608.0


def test_grouped_conv_cost_halves():
    assert Conv2d(16, 16, 3, groups=2).flops_per_pixel() == 2304.0


def test_report_independent_of_parameter_values(rng):
    cfg = CsdnConfig(arch="edsr", num_blocks=4, num_features=8,
                     use_csconv=True, num_classes=12)
    net = build_csdn(cfg, seed=0)
    before = total_flops(net)
    for _, p in net.named_parameters():
        p.data += rng.standard_normal(p.shape)
    assert total_flops(net) == before
    # and a same-config rebuild with another seed reports the same cost
    assert total_flops(build_csdn(cfg, seed=99)) == before


def test_csconv_counts_like_plain_conv():
    cs = CsdnConfig(arch="edsr", num_blocks=3, num_features=8,
                    use_csconv=True, num_classes=72)
    plain = CsdnConfig(arch="edsr", num_blocks=3, num_features=8,
                       use_csconv=False, num_classes=1)
    assert total_flops(build_csdn(cs)) == total_flops(build_csdn(plain))


def test_classifier_cost_scales_down_with_resolution():
    by_name = dict(build_pcn(PcnConfig()).flops_layers())
    # the bottleneck runs at quarter resolution: 1/16 area weighting
    assert by_name["bottleneck_in"] == pytest.approx(by_name["encoder.0"] / 16)
